"""Symbolic type calculus for admissible and isotropic kernel terms.

A descriptor records one monomial of the shape

    xi_N xi*_M sigma_j P^{-t0} Phi^{t1} Phibar^{t2} Phi*^{t3} Phibar*^{t4} r^l r*^m

together with optional 1/gamma, 1/gamma* prefactor exponents which are
tracked outside the type.  The integer type is

    tau = 2n + j + min(2, t - l - m, N + M) - 2 (t0 + t - l - m)

with t = -(t1 + t2 + t3 + t4) >= 0.  Sums of monomials carry the minimum
type of their terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


class DescriptorError(Exception):
    pass


@dataclass(frozen=True)
class AdmissibleDescriptor:
    N: int = 0
    M: int = 0
    j: int = 0
    t0: int = 0
    t1: int = 0
    t2: int = 0
    t3: int = 0
    t4: int = 0
    l: int = 0
    m: int = 0
    inv_gamma: int = 0
    inv_gamma_star: int = 0
    label: str = ""

    @property
    def t(self) -> int:
        return -(self.t1 + self.t2 + self.t3 + self.t4)

    def validate(self) -> None:
        if min(self.j, self.t0, self.l, self.m) < 0:
            raise DescriptorError(f"j, t0, l, m must be >= 0: {self}")
        if self.N < 0 or self.M < 0:
            raise DescriptorError(f"N, M must be >= 0: {self}")
        if self.t < 0:
            raise DescriptorError(f"total Phi-family weight t={self.t} < 0: {self}")
        if self.l + self.m > self.t + 1:
            raise DescriptorError(f"l+m > t+1: {self}")
        if self.inv_gamma < 0 or self.inv_gamma_star < 0:
            raise DescriptorError(f"prefactor exponents must be >= 0: {self}")


@dataclass(frozen=True)
class IsotropicDescriptor:
    """Diagonal-singularity kernel sigma_m / rho^(2k); k may be half-integer."""

    m: int
    k: Fraction
    label: str = ""

    def validate(self) -> None:
        if self.m < 0 or self.k < 0:
            raise DescriptorError(f"m, k must be >= 0: {self}")


def admissible_type(d: AdmissibleDescriptor, n: int) -> int:
    d.validate()
    tlm = d.t - d.l - d.m
    return 2 * n + d.j + min(2, tlm, d.N + d.M) - 2 * (d.t0 + tlm)


def isotropic_type(d: IsotropicDescriptor, n: int) -> Fraction:
    """Largest j with sigma_m / rho^(2k) in the class of type-j isotropic
    kernels: j = m - 2k + 2n."""
    d.validate()
    return d.m - 2 * Fraction(d.k) + 2 * n


@dataclass(frozen=True)
class PathExponents:
    """Log-log orders along an approach path with parameter t:
    rho ~ t^a, |r| ~ t^b, |r*| ~ t^c, P ~ t^p, |Phi-family| ~ t^f."""

    a: Fraction = Fraction(1)
    b: Fraction = Fraction(2)
    c: Fraction = Fraction(2)
    p: Fraction = Fraction(2)
    f: Fraction = Fraction(2)


PARABOLIC = PathExponents()


def exponent_along_path(d: AdmissibleDescriptor, n: int,
                        path: PathExponents = PARABOLIC) -> Fraction:
    """Predicted log-log decay exponent of the descriptor's modulus envelope."""
    d.validate()
    if min(path.a, path.b, path.c, path.p, path.f) <= 0:
        raise DescriptorError("path exponents must be positive")
    return (Fraction(d.j) * path.a + d.l * path.b + d.m * path.c
            - d.t0 * path.p - d.t * path.f
            - d.inv_gamma * path.b / 2 - d.inv_gamma_star * path.c / 2)


# ---------------------------------------------------------------------------
# Curated descriptor table for the explicit kernel main terms.
#
# Each entry maps one printed main term to its monomial descriptors; sums of
# monomials report the min type.  The gamma/gamma* ratio factors are split
# into their sigma/r components so every monomial meets the t >= 0 constraint.
# ---------------------------------------------------------------------------


def neumann_main_terms(n: int, q: int) -> list[AdmissibleDescriptor]:
    """Main-term descriptors of the principal Neumann kernel (mu-sum part)."""
    if not (1 <= q <= n - 2):
        raise DescriptorError(f"q={q} out of range for n={n}")
    out = []
    for mu in range(0, n - q - 1):
        out.append(AdmissibleDescriptor(
            N=2, j=0, t0=n - mu - 2, t2=-(mu + 2),
            label=f"Nq-main n={n} q={q} mu={mu}"))
    return out


def neumann_ratio_terms(n: int, q: int) -> list[AdmissibleDescriptor]:
    """The (gamma/gamma*) 2 Phi / (Phibar P^(n-1)) term, with Phi expanded as
    gamma sigma_1 + sigma_2 + r xi_0."""
    base = dict(inv_gamma_star=1, t0=n - 1, t2=-1)
    return [
        AdmissibleDescriptor(N=1, j=1, **base, label=f"Nq-ratio-gsigma1 n={n} q={q}"),
        AdmissibleDescriptor(N=0, j=2, **base, label=f"Nq-ratio-sigma2 n={n} q={q}"),
        AdmissibleDescriptor(N=0, j=0, l=1, **base, label=f"Nq-ratio-r n={n} q={q}"),
    ]


def neumann_nu_term(n: int, q: int) -> AdmissibleDescriptor:
    """The P^(1-n) term carrying the conormal block."""
    return AdmissibleDescriptor(t0=n - 1, label=f"Nq-nu n={n} q={q}")


def lq_main_terms(n: int, q: int) -> list[AdmissibleDescriptor]:
    if not (0 <= q <= n - 2):
        raise DescriptorError(f"q={q} out of range for n={n}")
    out = []
    for mu in range(0, n - q - 1):
        out.append(AdmissibleDescriptor(
            N=1, j=1, t0=n - mu - 1, t2=-(mu + 1),
            label=f"Lq-main n={n} q={q} mu={mu}"))
    return out


def h_main_terms(n: int, q: int) -> list[AdmissibleDescriptor]:
    """Descriptors of every printed H-term monomial, the conormal block included."""
    out = []
    for mu in range(0, n - q - 1):
        out.append(AdmissibleDescriptor(
            N=2, j=1, t0=n - mu - 1, t2=-(mu + 2),
            label=f"H-case-a n={n} q={q} mu={mu}"))
    co = dict(inv_gamma_star=1, t0=n, t2=-1)
    out.append(AdmissibleDescriptor(N=1, j=2, **co, label=f"H-ratio-gsigma1 n={n} q={q}"))
    out.append(AdmissibleDescriptor(N=0, j=3, **co, label=f"H-ratio-sigma2 n={n} q={q}"))
    out.append(AdmissibleDescriptor(N=0, j=1, l=1, **co, label=f"H-ratio-r n={n} q={q}"))
    # case b: (1/gamma) 4 Phi / P^n, Phi expanded
    cb = dict(inv_gamma=1, t0=n)
    out.append(AdmissibleDescriptor(N=1, j=1, **cb, label=f"H-case-b-gsigma1 n={n} q={q}"))
    out.append(AdmissibleDescriptor(N=0, j=2, **cb, label=f"H-case-b-sigma2 n={n} q={q}"))
    out.append(AdmissibleDescriptor(N=0, j=0, l=1, **cb, label=f"H-case-b-r n={n} q={q}"))
    out.append(AdmissibleDescriptor(N=0, j=1, t0=n, label=f"H-nu n={n} q={q}"))
    return out


def gamma0q_descriptor(n: int, q: int) -> IsotropicDescriptor:
    return IsotropicDescriptor(m=0, k=Fraction(n - 1), label=f"Gamma0q n={n} q={q}")


def dbar_gamma0q_descriptor(n: int, q: int) -> IsotropicDescriptor:
    return IsotropicDescriptor(m=0, k=Fraction(2 * n - 1, 2),
                               label=f"dbar-Gamma0q n={n} q={q}")


def tq_main_descriptors(n: int, q: int):
    """Admissible main terms plus the isotropic parametrix-derivative part."""
    return h_main_terms(n, q), dbar_gamma0q_descriptor(n, q)
