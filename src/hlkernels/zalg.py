"""Formal algebra of weight-commuted operator identities.

Terms are built from gamma-weights, generic smoothing operators Z_k of
integer type k, explicit kernel pairings, harmonic projections, and
L2-bounded tails.  A term

    gamma(z)^out  .  HEAD  .  gamma^arg  .  INNER(f)

acts on the fixed argument symbol f, where INNER is one of

    id, dbar, dbarstar, box, H, N, dbarN, dbarstarN, boxN.

Rewrite rules:
    R1  Z_i . Z_j               -> Z_{i+j}
    R2  g^m . Z_k . g^e         -> Z_k . g^{e+m}  +  Z_{k+1} . g^e      (m >= 1)
    R3  boxN                    -> id - H
    R4  g^3 id / dbar / dbarstar -> explicit weighted identities (axioms)
    R5  g^s . H                 -> Z_{s//2} . H                          (s >= 2)
    P1  g . gp-Pair(K, g^s X)   -> gp-Pair(K, g^{s+1} X) + Z_{tau+2} g^s X
    P2  Z_k . gp-Pair(K, g^s X) -> Z_{k + tau_K + 1} . g^s X   (tau incl. gp)

Generic Z-terms form classes: Z_k g^s X absorbs Z_{k'} g^{s'} X whenever
k <= k' and s <= s' (bounded extra weights only improve the class), and
signs are immaterial on generic terms.  Explicit pairing terms carry signed
integer coefficients and cancel exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import typecalc

_SUBN = {"id": "N", "dbar": "dbarN", "dbarstar": "dbarstarN", "box": "boxN"}
_BOUNDED = {"H", "N", "dbarN", "dbarstarN"}

KERNEL_TYPE = {"Nq": 2, "Tq-1": 1, "Tq*": 1}
MAX_REWRITE_STEPS = 20000   # simplify's budget before it declares non-termination


class ZalgError(Exception):
    pass


class NotComparable(ZalgError):
    pass


@dataclass(frozen=True)
class Term:
    head: tuple            # ('ID',) | ('Z', k) | ('PAIR', kernel, gstar) | ('LEDGER', m, k, tails)
    out_g: int = 0
    arg_g: int = 0
    inner: str = "id"
    coef: int = 1

    def kind(self) -> str:
        return self.head[0]

    def __repr__(self) -> str:
        return format_term(self)


def format_term(t: Term) -> str:
    arg = f"g^{t.arg_g} " if t.arg_g else ""
    inner = {"id": "f", "dbar": "dbar f", "dbarstar": "dbar* f", "box": "box f",
             "H": "H f", "N": "N f", "dbarN": "dbar N f",
             "dbarstarN": "dbar* N f", "boxN": "box N f"}[t.inner]
    body = f"{arg}{inner}"
    k = t.head
    if k[0] == "ID":
        core = body
    elif k[0] == "Z":
        core = f"Z{k[1]} {body}"
    elif k[0] == "PAIR":
        star = "g* " if k[2] else ""
        core = f"{star}({body}, {k[1]})"
    elif k[0] == "LEDGER":
        core = f"C({k[1]},{k[2]}) {body}"
    else:
        raise ZalgError(f"bad head {k}")
    sign = "" if t.coef == 1 else ("-" if t.coef == -1 else f"{t.coef} ")
    pre = f"g^{t.out_g} " if t.out_g else ""
    return f"{sign}{pre}{core}"


class ZExpr:
    """Formal signed sum of terms."""

    def __init__(self, terms):
        self.terms: tuple[Term, ...] = tuple(terms)

    # constructors -------------------------------------------------------

    @staticmethod
    def single(head, out_g=0, arg_g=0, inner="id", coef=1) -> "ZExpr":
        return ZExpr([Term(head, out_g, arg_g, inner, coef)])

    @staticmethod
    def z(k: int, arg_g: int = 0, inner: str = "id") -> "ZExpr":
        return ZExpr.single(("Z", k), 0, arg_g, inner)

    @staticmethod
    def pair(kernel: str, arg_g: int = 0, inner: str = "id",
             gstar: bool = True, out_g: int = 0) -> "ZExpr":
        if kernel not in KERNEL_TYPE:
            raise ZalgError(f"unknown kernel {kernel}")
        return ZExpr.single(("PAIR", kernel, gstar), out_g, arg_g, inner)

    def __add__(self, other: "ZExpr") -> "ZExpr":
        return ZExpr(self.terms + other.terms)

    def __sub__(self, other: "ZExpr") -> "ZExpr":
        return ZExpr(self.terms + tuple(replace(t, coef=-t.coef) for t in other.terms))

    def scale_gamma_out(self, m: int) -> "ZExpr":
        return ZExpr(tuple(replace(t, out_g=t.out_g + m) for t in self.terms))

    def substitute_neumann(self) -> "ZExpr":
        """f -> N f in every argument slot."""
        out = []
        for t in self.terms:
            if t.inner in _SUBN:
                out.append(replace(t, inner=_SUBN[t.inner]))
            else:
                raise ZalgError(f"cannot substitute into inner {t.inner}")
        return ZExpr(out)

    def set_gamma_one(self) -> "ZExpr":
        return ZExpr(tuple(replace(t, out_g=0, arg_g=0) for t in self.terms))

    def key_multiset(self):
        return sorted((t.head, t.out_g, t.arg_g, t.inner, t.coef) for t in self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, ZExpr) and self.key_multiset() == other.key_multiset()

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = [format_term(t) for t in self.terms]
        return " + ".join(parts).replace("+ -", "- ")


# -- axioms ------------------------------------------------------------------

def gamma3_axiom(part: str) -> ZExpr:
    """The weight-3 identities: base case of the induction (R4)."""
    if part == "i":
        return (ZExpr.pair("Nq", arg_g=2, inner="box")
                + ZExpr.z(2, inner="dbar") + ZExpr.z(2, inner="dbarstar")
                + ZExpr.z(1, inner="id"))
    if part in ("ii", "iii"):
        return (ZExpr.z(1, arg_g=2, inner="box")
                + ZExpr.z(1, inner="dbar") + ZExpr.z(1, inner="dbarstar"))
    raise ZalgError(f"unknown part {part!r}")


_R4_INNER = {"id": "i", "dbar": "ii", "dbarstar": "iii"}


# -- normalization ------------------------------------------------------------

def _pair_type(head: tuple) -> int:
    """Type of the pairing operator including its gamma* prefactor."""
    return KERNEL_TYPE[head[1]]


def _rewrite_term(t: Term, fold_order: int | None,
                  expand: bool) -> list[Term] | None:
    """One rewrite step on a single term, or None when already normal."""
    kind = t.kind()

    if t.inner == "boxN":
        # box N f = f - H f
        return [
            Term(t.head, t.out_g, t.arg_g, "id", t.coef),
            Term(t.head, t.out_g, t.arg_g, "H", -t.coef),
        ]

    if kind == "ID":
        if t.out_g:
            # output and argument weights coincide for a multiplication term
            return [replace(t, out_g=0, arg_g=t.arg_g + t.out_g)]
        if expand and t.inner in _R4_INNER and t.arg_g >= 3:
            rest = t.arg_g - 3
            expansion = gamma3_axiom(_R4_INNER[t.inner])
            return [replace(s, out_g=s.out_g + rest, coef=s.coef * t.coef)
                    for s in expansion.terms]
        if t.inner == "H" and t.arg_g >= 2:
            return [Term(("Z", t.arg_g // 2), 0, 0, "H", t.coef)]
        return None

    if kind == "PAIR":
        if not t.head[2]:
            if t.out_g < 1:
                raise ZalgError(f"cannot normalize plain pairing {t}")
            return [Term(("PAIR", t.head[1], True), t.out_g - 1, t.arg_g,
                         t.inner, t.coef)]
        if t.inner == "H":
            # projection argument: the pairing is just its Z-class on H f
            return [Term(("Z", _pair_type(t.head)), t.out_g, t.arg_g, "H", t.coef)]
        if t.out_g >= 1:
            tau = _pair_type(t.head)
            return [
                Term(t.head, t.out_g - 1, t.arg_g + 1, t.inner, t.coef),
                Term(("Z", tau + 1), t.out_g - 1, t.arg_g, t.inner, t.coef),
            ]
        return None

    if kind == "Z":
        k = t.head[1]
        if t.out_g >= 1:
            return [
                Term(("Z", k), 0, t.arg_g + t.out_g, t.inner, t.coef),
                Term(("Z", k + 1), 0, t.arg_g, t.inner, t.coef),
            ]
        if expand and t.inner in _R4_INNER and t.arg_g >= 3:
            rest = t.arg_g - 3
            out = []
            for s in gamma3_axiom(_R4_INNER[t.inner]).terms:
                if s.kind() == "PAIR":
                    # Z_k . g^rest . (g* pairing): bounded weights absorb
                    out.append(Term(("Z", k + _pair_type(("PAIR", s.head[1], True))),
                                    0, s.arg_g, s.inner, t.coef * s.coef))
                elif s.kind() == "Z":
                    kk = s.head[1]
                    if rest >= 1:
                        out.append(Term(("Z", k + kk), 0, s.arg_g + rest, s.inner,
                                        t.coef * s.coef))
                        out.append(Term(("Z", k + kk + 1), 0, s.arg_g, s.inner,
                                        t.coef * s.coef))
                    else:
                        out.append(Term(("Z", k + kk), 0, s.arg_g, s.inner,
                                        t.coef * s.coef))
                else:
                    raise ZalgError(f"unexpected axiom term {s}")
            return out
        if fold_order is not None and t.inner == "H" and t.arg_g >= 2:
            return [Term(("Z", k + t.arg_g // 2), 0, 0, "H", t.coef)]
        return None

    if kind == "LEDGER":
        return None

    raise ZalgError(f"bad head {t.head}")


def _merge(terms: list[Term]) -> list[Term]:
    """Combine explicit coefficients and absorb dominated generic terms."""
    explicit: dict[tuple, int] = {}
    generic: dict[tuple, list[tuple[int, int]]] = {}
    ledgers: list[Term] = []
    for t in terms:
        if t.kind() == "PAIR":
            key = (t.head, t.out_g, t.arg_g, t.inner)
            explicit[key] = explicit.get(key, 0) + t.coef
        elif t.kind() == "Z":
            generic.setdefault((t.inner, t.out_g), []).append((t.head[1], t.arg_g))
        elif t.kind() == "LEDGER":
            ledgers.append(t)
        else:
            key = (t.head, t.out_g, t.arg_g, t.inner)
            explicit[key] = explicit.get(key, 0) + t.coef
    out: list[Term] = []
    for (head, og, ag, inner), c in explicit.items():
        if c != 0:
            out.append(Term(head, og, ag, inner, c))
    for (inner, og), pairs in generic.items():
        keep: list[tuple[int, int]] = []
        for k, s in sorted(set(pairs)):
            if any(k0 <= k and s0 <= s for (k0, s0) in keep if (k0, s0) != (k, s)):
                continue
            keep = [p for p in keep if not (k <= p[0] and s <= p[1])]
            keep.append((k, s))
        for k, s in keep:
            out.append(Term(("Z", k), og, s, inner, 1))
    if ledgers:
        m = min(t.head[1] for t in ledgers)
        k = min(t.head[2] for t in ledgers)
        tails = tuple(sorted(set(sum((t.head[3] for t in ledgers), ()))))
        out.append(Term(("LEDGER", m, k, tails), 0, 0, ledgers[0].inner, 1))
    return out


def simplify(expr: ZExpr, fold_order: int | None = None,
             trace: list | None = None, rng=None,
             expand_identities: bool = True) -> ZExpr:
    """Exhaustive rewriting to normal form.

    fold_order=j additionally folds bounded tails into an asymptotic ledger
    of order j (and disables re-expanding finished weighted terms).  rng
    shuffles the scan order (used by the confluence tests); the normal form
    must not depend on it.
    """
    terms = list(expr.terms)
    steps = 0
    while True:
        terms = _merge(terms)
        order = list(range(len(terms)))
        if rng is not None:
            rng.shuffle(order)
        hit = None
        expand = expand_identities and fold_order is None
        for i in order:
            res = _rewrite_term(terms[i], fold_order, expand)
            if res is not None:
                hit = (i, res)
                break
        if hit is None:
            break
        steps += 1
        if steps > MAX_REWRITE_STEPS:
            raise ZalgError("rewrite did not terminate within the step budget")
        i, res = hit
        if trace is not None:
            trace.append({"rule": "rewrite", "before": format_term(terms[i]),
                          "after": [format_term(s) for s in res]})
        terms = terms[:i] + res + terms[i + 1:]
    if fold_order is not None:
        terms = _fold_ledger(terms, fold_order, trace)
    return ZExpr(_merge(terms))


def _fold_ledger(terms: list[Term], j: int, trace=None) -> list[Term]:
    kept: list[Term] = []
    tails: list[tuple[int, str]] = []
    for t in terms:
        if t.kind() == "Z" and t.inner in _BOUNDED:
            k = t.head[1]
            if t.inner == "H":
                k += t.arg_g // 2
            if k < j:
                raise ZalgError(f"tail {t} below asymptotic order {j}")
            tails.append((k, t.inner))
            if trace is not None:
                trace.append({"rule": "ledger", "before": format_term(t),
                              "after": f"C({j},{j}) tail"})
        else:
            kept.append(t)
    if tails:
        kept.append(Term(("LEDGER", j, j, tuple(sorted(set(tails)))), 0, 0, "id", 1))
    return kept


def coarsen_plain_terms(expr: ZExpr) -> ZExpr:
    """Collapse generic Z-terms on the plain argument to one theorem-shaped
    term Z_{k0} g^{s0} f with k0 the best type present and s0 = min(2, s)."""
    zs = [t for t in expr.terms if t.kind() == "Z" and t.inner == "id"]
    rest = [t for t in expr.terms if not (t.kind() == "Z" and t.inner == "id")]
    if not zs:
        return expr
    k0 = min(t.head[1] for t in zs)
    s0 = min(min(t.arg_g, 2) for t in zs)
    return ZExpr(rest + [Term(("Z", k0), 0, s0, "id", 1)])


# -- derivations --------------------------------------------------------------

def derive_mainint(j: int, part: str, trace: list | None = None) -> ZExpr:
    """Weight-3j identity obtained by induction from the weight-3 axioms."""
    if j < 1:
        raise ZalgError("j >= 1 required")
    if part not in ("i", "ii", "iii"):
        raise ZalgError(f"unknown part {part!r}")
    e = gamma3_axiom(part)
    if trace is not None:
        trace.append({"rule": "axiom", "after": repr(e)})
    for _ in range(j - 1):
        e = simplify(e.scale_gamma_out(3), trace=trace)
    return simplify(e)


def expected_mainint(j: int, part: str) -> ZExpr:
    """Displayed normal forms of the weight-3j identities."""
    if part == "i":
        terms = [ZExpr.pair("Nq", arg_g=3 * j - 1, inner="box")]
        for k in range(3, j + 2):
            terms.append(ZExpr.z(k, arg_g=3 * (j - k) + 5, inner="box"))
        terms.append(ZExpr.z(j + 1, inner="dbar"))
        terms.append(ZExpr.z(j + 1, inner="dbarstar"))
        terms.append(ZExpr.z(j, inner="id"))
    elif part in ("ii", "iii"):
        terms = [ZExpr.z(k, arg_g=3 * (j - k) + 2, inner="box")
                 for k in range(1, j + 1)]
        terms.append(ZExpr.z(j, inner="dbar"))
        terms.append(ZExpr.z(j, inner="dbarstar"))
    else:
        raise ZalgError(f"unknown part {part!r}")
    return sum(terms[1:], terms[0])


_KIND_SETUP = {
    "N": ("i", None),
    "dbarN": ("ii", "Tq*"),
    "dbarstarN": ("iii", "Tq-1"),
}


def derive_intmain(kind: str, j: int, trace: list | None = None) -> ZExpr:
    """Asymptotic development of the Neumann solution operators."""
    if kind not in _KIND_SETUP:
        raise ZalgError(f"unknown kind {kind!r}")
    part, kernel = _KIND_SETUP[kind]
    e = derive_mainint(j, part, trace=trace)
    if kernel is not None:
        out = []
        swapped = False
        for t in e.terms:
            if (not swapped and t.kind() == "Z" and t.head[1] == 1
                    and t.inner == "box" and t.arg_g == 3 * j - 1):
                out.append(Term(("PAIR", kernel, True), 0, 3 * j - 1, "box", t.coef))
                out.append(Term(("Z", 2), 0, 3 * j - 2, "box", t.coef))
                swapped = True
                if trace is not None:
                    trace.append({"rule": "kernel-head",
                                  "before": format_term(t),
                                  "after": f"pairing with {kernel}"})
            else:
                out.append(t)
        if not swapped:
            raise ZalgError("expected weight-(3j-1) head term not found")
        e = ZExpr(out)
    e = e.substitute_neumann()
    if trace is not None:
        trace.append({"rule": "substitute", "after": repr(e)})
    e = simplify(e, fold_order=j, trace=trace)
    return coarsen_plain_terms(e)


def expected_intmain(kind: str, j: int) -> ZExpr:
    part, kernel = _KIND_SETUP[kind]
    kern = kernel if kernel is not None else "Nq"
    terms = [ZExpr.pair(kern, arg_g=3 * j - 1, inner="id")]
    if kind == "N":
        if j >= 2:
            terms.append(ZExpr.z(3, arg_g=2, inner="id"))
    else:
        terms.append(ZExpr.z(2, arg_g=min(3 * j - 2, 2), inner="id"))
    return sum(terms[1:], terms[0])


def strip_ledger(expr: ZExpr) -> tuple[ZExpr, list[Term]]:
    led = [t for t in expr.terms if t.kind() == "LEDGER"]
    rest = [t for t in expr.terms if t.kind() != "LEDGER"]
    return ZExpr(rest), led


def principal_part_type(a: ZExpr, b: ZExpr) -> int | float:
    """Minimum type in simplify(a - b), ignoring asymptotic tails.

    Certifies a principal-part statement: a difference of type m+1 beyond
    the ledger shows the shared head is a principal part of type m.
    """
    a_in = {t.inner for t in a.terms if t.kind() != "LEDGER"}
    b_in = {t.inner for t in b.terms if t.kind() != "LEDGER"}
    base = {"id", "box", "dbar", "dbarstar"}
    if a_in and b_in and not ((a_in | _subbed(a_in)) & (b_in | _subbed(b_in)) & base):
        raise NotComparable(f"argument symbols {a_in} vs {b_in}")
    # structural pre-cancellation: identical symbols denote identical operators
    counts: dict[tuple, int] = {}
    for t in a.terms:
        k = (t.head, t.out_g, t.arg_g, t.inner)
        counts[k] = counts.get(k, 0) + t.coef
    for t in b.terms:
        k = (t.head, t.out_g, t.arg_g, t.inner)
        counts[k] = counts.get(k, 0) - t.coef
    residual = ZExpr([Term(*k, coef=c) for k, c in counts.items() if c != 0])
    diff = simplify(residual, expand_identities=False)
    types = []
    for t in diff.terms:
        if t.kind() == "Z":
            types.append(t.head[1])
        elif t.kind() == "PAIR":
            types.append(KERNEL_TYPE[t.head[1]])
        elif t.kind() == "ID":
            types.append(0)
    return min(types) if types else math.inf


def _subbed(inner_set):
    back = {v: k for k, v in _SUBN.items()}
    return {back.get(s, s) for s in inner_set}


# -- mapping exponents ---------------------------------------------------------

def map_exponent(j: int, p, n: int) -> Fraction:
    """Infimal 1/s for the L^p -> L^s mapping of a type-j composite, p >= 2."""
    p = Fraction(p)
    if p < 2:
        raise ZalgError("requires p >= 2")
    return Fraction(1, 1) / p - Fraction(j, 2 * n + 2)


def type_threshold(descriptors, p, n: int) -> Fraction:
    """Infimal 1/s for the L^p -> L^s mapping of a kernel with these `typecalc`
    descriptors, 1 <= p <= infinity: 1/p - j/(2n+2) for admissible type j and
    1/p - j/(2n) for isotropic type j, at the term that maps worst."""
    if not p >= 1:
        raise ZalgError("requires p >= 1")
    return (0 if p == math.inf else 1 / Fraction(p)) - min(
        typecalc.isotropic_type(d, n) / (2 * n) if isinstance(d, typecalc.IsotropicDescriptor)
        else Fraction(typecalc.admissible_type(d, n), 2 * n + 2) for d in descriptors)


def transcript_json(kind: str, j: int) -> str:
    """Derivation transcript with rule applications and the normal form."""
    trace: list = []
    if kind in ("i", "ii", "iii"):
        e = derive_mainint(j, kind, trace=trace)
        expected = expected_mainint(j, kind)
    else:
        e = derive_intmain(kind, j, trace=trace)
        expected = expected_intmain(kind, j)
    ok = compare_modulo_ledger(e, expected)
    return json.dumps({
        "kind": kind, "j": j, "steps": trace,
        "normal_form": repr(e), "expected": repr(expected),
        "match": ok,
    }, indent=2)


def compare_modulo_ledger(a: ZExpr, b: ZExpr) -> bool:
    ra, _ = strip_ledger(a)
    rb, _ = strip_ledger(b)
    return ra == rb
