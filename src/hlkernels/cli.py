"""Command-line front end: suites, kernel evaluation, symbolic derivations,
and mapping-ratio tables.  Outputs CSV/JSON; identical config and seed give
byte-identical files.  Exit codes: 0 pass, 1 check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import kernels, quad, verify, zalg
from .domain import DomainError, make_domain

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

DOMAINS = ("ball", "pinched")
DERIVE_PARTS = {"mainint": ("i", "ii", "iii"), "intmain": ("N", "dbarN", "dbarstarN")}
# Each setting's type, default (None: the callee picks one) and help; an int
# is accepted where a float is.  Flags, then defaults, enter a report's
# `config` in this order.
SETTINGS = {"domain": (str, "ball", "model domain"),
            "n": (int, 3, "complex dimension, >= 2"),
            "q": (int, 1, "form degree"),
            "seed": (int, 0, "seed of base points, targets and trial fields"),
            "eps": (float, None, "interior exhaustion parameter of the grids "
                                 "(default twice the coarsest step)"),
            "delta": (float, 0.15, "patching radius"),
            "out": (str, "out", "output directory")}
# The settings each subcommand reads: its only setting flags and config keys.
TAKES = {"list-suites": (), "suite": ("domain", "n", "q", "seed", "delta", "out"),
         "eval": ("domain", "n", "q", "delta", "out"),
         "derive": ("out",),
         "ratio": ("domain", "n", "q", "seed", "eps", "out")}


def _load_config(args) -> dict:
    """The settings of args.command: the config file's, then the flags', then
    the defaults.  A config key the subcommand does not read is a usage error."""
    takes = TAKES[args.command]
    cfg = {}
    if args.config:
        cfg = json.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
        for key in cfg:
            if key not in takes:
                raise ValueError(f"config key {key!r} is not a setting of {args.command}, "
                                 f"which takes {', '.join(takes) or 'none'}")
    for key in takes:
        if getattr(args, key) is not None:
            cfg[key] = getattr(args, key)
    for key in takes:
        want, default, _ = SETTINGS[key]
        if default is not None:
            cfg.setdefault(key, default)
        accepted = (int, float) if want is float else want
        if key in cfg and (isinstance(cfg[key], bool) or not isinstance(cfg[key], accepted)):
            raise ValueError(f"config {key!r} must be {want.__name__}, got {cfg[key]!r}")
    if "domain" in cfg and cfg["domain"].lower() not in DOMAINS:
        raise ValueError(f"unknown domain {cfg['domain']!r}; have {list(DOMAINS)}")
    if "n" in cfg and cfg["n"] < 2:
        raise ValueError("n must be >= 2")
    if "delta" in cfg and not 0 < cfg["delta"] < np.inf:
        raise ValueError(f"delta must be positive and finite, got {cfg['delta']}")
    return cfg


def _outdir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_list_suites(args) -> int:
    _load_config(args)      # it takes no setting, but a bad config file is still an error
    for name in sorted(verify.SUITES):
        print(name)
    return EXIT_PASS


def cmd_suite(args) -> int:
    cfg = _load_config(args)
    names = ([name.strip() for name in args.suites.split(",")] if args.suites
             else sorted(verify.SUITES))
    for name in names:
        verify.check_suite_args(name, cfg["n"], cfg["q"])
    if args.tmax < args.tmin:
        raise ValueError(f"--tmax {args.tmax} is below --tmin {args.tmin}: the t-grid is empty")
    t_grid = tuple(2.0 ** (-k) for k in range(args.tmin, args.tmax + 1))
    out = _outdir(cfg)
    all_pass = True
    reports = []
    for name in names:
        try:
            rep = verify.run_suite(name, cfg["domain"], cfg["n"], cfg["q"],
                                   seed=cfg["seed"], t_grid=t_grid, delta=cfg["delta"])
        except verify.VerifyError as e:     # the input passed check_suite_args
            print(f"error: suite {name}: {e}", file=sys.stderr)
            return EXIT_FAIL
        reports.append(rep)
        all_pass &= rep["passed"]
        for c in rep["checks"]:
            status = "pass" if c["passed"] else "FAIL"
            print(f"{name:16s} {c['check']:40s} {status}  "
                  f"measured={c['slope_measured']:.4g} required={c['slope_required']:.4g}")
    report = {"config": cfg, "t_grid": list(t_grid), "suites": reports,
              "passed": all_pass}
    (out / "suite_report.json").write_text(json.dumps(report, indent=2))
    with (out / "suite_report.csv").open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["suite", "check", "slope_measured", "slope_required", "status"])
        for rep in reports:
            for c in rep["checks"]:
                w.writerow([rep["suite"], c["check"], c["slope_measured"],
                            c["slope_required"], "pass" if c["passed"] else "FAIL"])
    return EXIT_PASS if all_pass else EXIT_FAIL


def cmd_eval(args) -> int:
    cfg = _load_config(args)
    model = make_domain(cfg["domain"], cfg["n"], delta=cfg["delta"])
    kern = kernels.make_kernel(args.kernel, model, cfg["q"])
    out = _outdir(cfg)
    rows = []
    n = cfg["n"]
    with open(args.points) as fh:
        reader = csv.reader(row for row in fh if not row.startswith("#"))
        for rec in reader:
            if not rec:
                continue
            vals = [float(x) for x in rec]
            pt = " ".join(rec)
            if len(vals) != 4 * n:
                rows.append(["error", "bad-point-arity", pt, "", "", ""])
                continue
            zeta = np.array(vals[:2 * n][0::2]) + 1j * np.array(vals[:2 * n][1::2])
            z = np.array(vals[2 * n:][0::2]) + 1j * np.array(vals[2 * n:][1::2])
            try:
                v = kern.eval(zeta, z)
            except Exception as e:
                rows.append(["error", type(e).__name__, pt, "", "", ""])
                continue
            for key, c in sorted(v.coeffs.items()):
                rows.append(["ok", "", pt, str(key), c.real, c.imag])
    path = Path(cfg["out"]) / f"eval_{args.kernel}.csv"
    with path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["status", "error", "point", "component", "re", "im"])
        for r in rows:
            w.writerow(r)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_PASS


def cmd_derive(args) -> int:
    kind = args.kind
    if args.part not in DERIVE_PARTS[kind]:
        raise ValueError(f"{kind} parts: {' | '.join(DERIVE_PARTS[kind])}; got {args.part!r}")
    out = _outdir(_load_config(args))
    transcript = zalg.transcript_json(args.part, args.j)
    path = out / f"derive_{kind}_{args.part}_{args.j}.json"
    path.write_text(transcript)
    data = json.loads(transcript)
    print(f"{kind} {args.part} j={args.j}: "
          f"{'match' if data['match'] else 'MISMATCH'}")
    print(f"normal form: {data['normal_form']}")
    print(f"wrote {path}")
    return EXIT_PASS if data["match"] else EXIT_FAIL


def cmd_ratio(args) -> int:
    cfg = _load_config(args)
    resolutions = [int(x) for x in args.resolutions.split(",")]
    # `not 1 <= v < inf` also rejects NaN
    bad = [f"{name}={v}" for name, v in (("p", args.p), ("s", args.s), ("trials", args.trials))
           if not 1 <= v < np.inf] + [f"resolution={r}" for r in resolutions if r < 1]
    bad += [f"{name}={v}" for name, v in (("a", args.a), ("b", args.b)) if not np.isfinite(v)]
    if bad:
        raise ValueError("ratio needs p, s, trials and every resolution >= 1, and p, s, a, b "
                         f"finite; got {', '.join(bad)}")
    model = make_domain(cfg["domain"], cfg["n"])     # neither E nor N_q reads delta
    rep = quad.ratio_table(model, args.kernel, cfg["q"], a=args.a, b=args.b,
                           p=args.p, s=args.s, trials=args.trials,
                           resolutions=resolutions, seed=cfg["seed"], eps=cfg.get("eps"))
    out = _outdir(cfg)
    csv_path = out / f"ratio_{args.kernel}.csv"
    with csv_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["resolution", "p", "s", "a", "b", "trial", "ratio"])
        for r in rep["rows"]:
            w.writerow([r.resolution, r.p, r.s, r.a, r.b, r.trial, r.ratio])
    meta_path = out / f"ratio_{args.kernel}_meta.json"
    meta_path.write_text(json.dumps(rep["meta"], indent=2))
    print(json.dumps(rep["meta"]["max_ratio_by_resolution"], indent=2))
    print(f"wrote {csv_path}, {meta_path}")
    return EXIT_PASS


class _Parser(argparse.ArgumentParser):
    """An argument parser, and through `parser_class` its subcommands' parsers,
    whose usage errors are one line, `error: <message>`, with exit code 2,
    as every other usage error is; --help still prints help and exits 0."""

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="hlkernels",
        description="Kernel calculus and verification suites on model domains")
    ap.add_argument("--config", help="JSON config file; flags override")
    sub = ap.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, func, about):
        p = sub.add_parser(name, help=about)
        p.set_defaults(func=func)
        for key in TAKES[name]:
            want, _, text = SETTINGS[key]
            p.add_argument(f"--{key}", type=want, help=text,
                           choices=DOMAINS if key == "domain" else None)
        return p

    command("list-suites", cmd_list_suites, "print the suite registry")
    p = command("suite", cmd_suite, "run verification suites")
    p.add_argument("--suites", help="comma-separated suite names (default all)")
    p.add_argument("--tmin", type=int, default=3, help="t-grid from 2^-tmin")
    p.add_argument("--tmax", type=int, default=10, help="t-grid to 2^-tmax")

    p = command("eval", cmd_eval, "evaluate a kernel on a CSV point list")
    p.add_argument("--kernel", required=True)
    p.add_argument("--points", required=True,
                   help="CSV rows: re/im of zeta then of z (4n numbers)")

    p = command("derive", cmd_derive, "symbolic derivation transcript")
    p.add_argument("--kind", choices=list(DERIVE_PARTS), required=True)
    p.add_argument("--part", required=True, help="; ".join(
        f"{kind}: {'|'.join(parts)}" for kind, parts in DERIVE_PARTS.items()))
    p.add_argument("--j", type=int, required=True)

    p = command("ratio", cmd_ratio, "mapping-ratio table")
    p.add_argument("--kernel", choices=list(quad.RATIO_KERNELS), required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--s", type=float, default=3.5)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--resolutions", default="8,10,12")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_PASS
    try:
        return args.func(args)
    except (ValueError, OSError, DomainError, kernels.KernelError, verify.VerifyError,
            quad.QuadError, zalg.ZalgError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
