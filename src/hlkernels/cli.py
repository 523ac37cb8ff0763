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
# Type of each configuration value; an int is accepted where a float is.
CONFIG_TYPES = {"domain": str, "n": int, "q": int, "seed": int,
                "eps": float, "delta": float, "out": str}


def _check_config_types(cfg: dict) -> None:
    for key, want in CONFIG_TYPES.items():
        if key not in cfg:
            continue
        val = cfg[key]
        accepted = (int, float) if want is float else want
        if isinstance(val, bool) or not isinstance(val, accepted):
            raise ValueError(f"config {key!r} must be {want.__name__}, got {val!r}")
    if cfg["domain"].lower() not in DOMAINS:
        raise ValueError(f"unknown domain {cfg['domain']!r}; have {list(DOMAINS)}")


def _load_config(args) -> dict:
    cfg = {}
    if args.config:
        cfg = json.loads(Path(args.config).read_text())
        if not isinstance(cfg, dict):
            raise ValueError("config file must hold a JSON object")
    for key in ("domain", "n", "q", "seed", "eps", "delta", "out"):
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    cfg.setdefault("domain", "ball")
    cfg.setdefault("n", 3)
    cfg.setdefault("q", 1)
    cfg.setdefault("seed", 0)
    cfg.setdefault("delta", 0.15)
    cfg.setdefault("out", "out")
    _check_config_types(cfg)
    if cfg["n"] < 2:
        raise ValueError("n must be >= 2")
    return cfg


def _outdir(cfg) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_list_suites(args) -> int:
    for name in sorted(verify.SUITES):
        print(name)
    return EXIT_PASS


def cmd_suite(args) -> int:
    cfg = _load_config(args)
    names = ([name.strip() for name in args.suites.split(",")] if args.suites
             else sorted(verify.SUITES))
    for name in names:
        verify.check_suite_args(name, cfg["n"], cfg["q"])
    t_grid = tuple(2.0 ** (-k) for k in range(args.tmin, args.tmax + 1))
    out = _outdir(cfg)
    all_pass = True
    reports = []
    for name in names:
        rep = verify.run_suite(name, cfg["domain"], cfg["n"], cfg["q"],
                               seed=cfg["seed"], t_grid=t_grid, delta=cfg["delta"])
        reports.append(rep)
        all_pass &= rep["passed"]
        for c in rep["checks"]:
            status = "pass" if c["passed"] else "FAIL"
            print(f"{name:16s} {c['check']:40s} {status}  "
                  f"measured={c['slope_measured']:.4g} required={c['slope_required']:.4g}")
    report = {"config": cfg, "t_grid": list(t_grid), "suites": reports,
              "passed": all_pass}
    (out / "suite_report.json").write_text(json.dumps(report, indent=2, default=str))
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
    try:
        kern = kernels.make_kernel(args.kernel, model, cfg["q"])
    except kernels.KernelError as e:
        print(e, file=sys.stderr)
        return EXIT_USAGE
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
    out = _outdir(_load_config(args))
    kind = args.kind
    if kind == "mainint":
        key = args.part
    else:
        key = {"N": "N", "dbarN": "dbarN", "dbarstarN": "dbarstarN"}.get(args.part)
        if key is None:
            print("intmain parts: N | dbarN | dbarstarN", file=sys.stderr)
            return EXIT_USAGE
    transcript = zalg.transcript_json(key, args.j)
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
    model = make_domain(cfg["domain"], cfg["n"], delta=cfg["delta"])
    resolutions = [int(x) for x in args.resolutions.split(",")]
    from fractions import Fraction
    if args.kernel == "E":
        thresh = zalg.e1_threshold(args.p, cfg["n"])
    else:
        thresh = Fraction(1, 1) / Fraction(args.p) - Fraction(1, cfg["n"] + 1)
    admissible = Fraction(1, 1) / Fraction(args.s).limit_denominator(1000) > thresh
    rep = quad.ratio_table(model, args.kernel, cfg["q"], a=args.a, b=args.b,
                           p=args.p, s=args.s, trials=args.trials,
                           resolutions=resolutions, seed=cfg["seed"],
                           admissible=bool(admissible), eps=cfg.get("eps"))
    out = _outdir(cfg)
    csv_path = out / f"ratio_{args.kernel}.csv"
    with csv_path.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["resolution", "p", "s", "a", "b", "trial", "ratio"])
        for r in rep["rows"]:
            w.writerow([r.resolution, r.p, r.s, r.a, r.b, r.trial, r.ratio])
    meta_path = out / f"ratio_{args.kernel}_meta.json"
    meta_path.write_text(json.dumps(rep["meta"], indent=2, default=str))
    print(json.dumps(rep["meta"]["max_ratio_by_resolution"], indent=2))
    print(f"wrote {csv_path}, {meta_path}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hlkernels",
        description="Kernel calculus and verification suites on model domains")
    ap.add_argument("--config", help="JSON config file; flags override")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--domain", choices=DOMAINS)
        p.add_argument("--n", type=int)
        p.add_argument("--q", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--eps", type=float, help="interior exhaustion parameter")
        p.add_argument("--delta", type=float)
        p.add_argument("--out")

    p = sub.add_parser("list-suites", help="print the suite registry")
    p.set_defaults(func=cmd_list_suites)

    p = sub.add_parser("suite", help="run verification suites")
    common(p)
    p.add_argument("--suites", help="comma-separated suite names (default all)")
    p.add_argument("--tmin", type=int, default=3, help="t-grid from 2^-tmin")
    p.add_argument("--tmax", type=int, default=10, help="t-grid to 2^-tmax")
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("eval", help="evaluate a kernel on a CSV point list")
    common(p)
    p.add_argument("--kernel", required=True)
    p.add_argument("--points", required=True,
                   help="CSV rows: re/im of zeta then of z (4n numbers)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("derive", help="symbolic derivation transcript")
    common(p)
    p.add_argument("--kind", choices=["mainint", "intmain"], required=True)
    p.add_argument("--part", required=True,
                   help="mainint: i|ii|iii; intmain: N|dbarN|dbarstarN")
    p.add_argument("--j", type=int, required=True)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("ratio", help="mapping-ratio table")
    common(p)
    p.add_argument("--kernel", choices=["E", "Nq"], required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--s", type=float, default=3.5)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=0.0)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--resolutions", default="8,10,12")
    p.set_defaults(func=cmd_ratio)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_PASS
    try:
        return args.func(args)
    except (ValueError, OSError, DomainError, verify.VerifyError, quad.QuadError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
