"""CLI contract: exit codes, outputs, determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from hlkernels import cli


def run(args):
    return cli.main(args)


def test_list_suites(capsys):
    assert run(["list-suites"]) == 0
    out = capsys.readouterr().out.split()
    assert "nkern" in out and "phisymm" in out


def test_suite_pass_and_exit_codes(tmp_path, capsys):
    code = run(["suite", "--domain", "pinched", "--n", "2", "--q", "1",
                "--suites", "morse,phisymm", "--out", str(tmp_path)])
    assert code == 0
    rep = json.loads((tmp_path / "suite_report.json").read_text())
    assert rep["passed"] is True
    assert (tmp_path / "suite_report.csv").exists()


def test_suite_unknown_name_usage_error(tmp_path):
    assert run(["suite", "--domain", "ball", "--n", "2", "--suites", "bogus",
                "--out", str(tmp_path)]) == 2


def test_suite_bad_n(tmp_path):
    assert run(["suite", "--domain", "ball", "--n", "1", "--suites", "morse",
                "--out", str(tmp_path)]) == 2


def test_eval_gamma00_matches_formula(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("1.0,0,0,0,0.9,0,0,0\n")
    assert run(["eval", "--kernel", "Gamma0q", "--domain", "ball", "--n", "2",
                "--q", "0", "--points", str(pts), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "eval_Gamma0q.csv").read_text().strip().splitlines()
    assert rows[0].startswith("status")
    import math
    val = float(rows[1].split(",")[-2])
    rho2 = 2 * 0.01
    assert val == pytest.approx(math.factorial(0) / (2 * math.pi ** 2) * rho2 ** -1)


def test_eval_error_row_and_empty_file(tmp_path):
    pts = tmp_path / "pts.csv"
    pts.write_text("0,0,0,0,0.1,0,0,0\n")   # singular frame for Nq on pinched
    assert run(["eval", "--kernel", "Nq", "--domain", "pinched", "--n", "3",
                "--q", "1", "--points", str(pts), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "eval_Nq.csv").read_text().strip().splitlines()
    assert len(rows) == 2 and rows[1].startswith("error")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run(["eval", "--kernel", "Gamma0q", "--domain", "ball", "--n", "2",
                "--q", "0", "--points", str(empty), "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "eval_Gamma0q.csv").read_text().strip().splitlines()
    assert len(rows) == 1


def test_derive_matches(tmp_path, capsys):
    assert run(["derive", "--kind", "mainint", "--part", "i", "--j", "2",
                "--out", str(tmp_path)]) == 0
    assert run(["derive", "--kind", "intmain", "--part", "N", "--j", "3",
                "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "derive_intmain_N_3.json").read_text())
    assert data["match"] is True
    assert run(["derive", "--kind", "intmain", "--part", "x", "--j", "1",
                "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("kind,part,j", [
    ("mainint", "N", 2),        # an intmain part under the other kind
    ("mainint", "x", 2),
    ("intmain", "i", 2),
    ("mainint", "i", 0),
    ("intmain", "N", 0),
])
def test_derive_bad_input_is_a_one_line_usage_error(tmp_path, capsys, kind, part, j):
    assert run(["derive", "--kind", kind, "--part", part, "--j", str(j),
                "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.glob("derive_*.json"))


def test_derive_mainint_j1_equals_axiom(tmp_path):
    assert run(["derive", "--kind", "mainint", "--part", "i", "--j", "1",
                "--out", str(tmp_path)]) == 0
    data = json.loads((tmp_path / "derive_mainint_i_1.json").read_text())
    from hlkernels.zalg import gamma3_axiom
    assert data["normal_form"] == repr(gamma3_axiom("i"))


def test_byte_identical_reports(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        run(["suite", "--domain", "ball", "--n", "2", "--q", "1",
             "--suites", "phisymm", "--seed", "5", "--out", str(out)])
    ra = json.loads((a / "suite_report.json").read_text())
    rb = json.loads((b / "suite_report.json").read_text())
    ra["config"].pop("out")
    rb["config"].pop("out")
    assert ra == rb
    assert (a / "suite_report.csv").read_text() == (b / "suite_report.csv").read_text()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"domain": "pinched", "n": 2, "q": 1,
                               "out": str(tmp_path / "cfgout")}))
    assert run(["--config", str(cfg), "suite", "--suites", "morse"]) == 0
    assert (tmp_path / "cfgout" / "suite_report.json").exists()


def _one_line_usage_error(code, capsys):
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    return err


def test_suite_nkern_needs_n3(tmp_path, capsys):
    code = run(["suite", "--domain", "pinched", "--n", "2", "--suites", "nkern",
                "--out", str(tmp_path / "o")])
    _one_line_usage_error(code, capsys)
    assert not (tmp_path / "o").exists()


def test_suite_that_fails_to_fit_exits_1(tmp_path, capsys):
    # valid input: nkern is defined at n=5, q=1, but its rate fit at n=5
    # has fewer than five positive samples
    code = run(["suite", "--domain", "ball", "--n", "5", "--q", "1", "--suites", "nkern",
                "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err == "error: suite nkern: fewer than five positive samples\n"


def test_suite_empty_t_grid_is_a_usage_error(tmp_path, capsys):
    # --tmax below --tmin leaves no t-grid; no suite runs on it
    code = run(["suite", "--domain", "pinched", "--n", "2", "--suites", "phibound",
                "--tmin", "5", "--tmax", "3", "--out", str(tmp_path / "o")])
    err = _one_line_usage_error(code, capsys)
    assert "--tmin" in err and "--tmax" in err
    assert not (tmp_path / "o").exists()


def test_suite_q_out_of_range(tmp_path, capsys):
    code = run(["suite", "--n", "3", "--q", "5", "--suites", "lemmalq",
                "--out", str(tmp_path / "o")])
    _one_line_usage_error(code, capsys)
    assert not (tmp_path / "o").exists()


def test_config_value_of_wrong_type(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": "3", "out": str(tmp_path / "o")}))
    code = run(["--config", str(cfg), "suite", "--suites", "morse"])
    _one_line_usage_error(code, capsys)
    assert not (tmp_path / "o").exists()


def test_suite_dgh_needs_q1(tmp_path, capsys):
    code = run(["suite", "--domain", "ball", "--n", "3", "--q", "0", "--suites", "dgh",
                "--out", str(tmp_path / "o")])
    _one_line_usage_error(code, capsys)
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kernel,q", [("Kq", 5), ("Gamma0q", 5), ("Cq", -1)])
def test_eval_q_out_of_range(tmp_path, capsys, kernel, q):
    pts = tmp_path / "pts.csv"
    pts.write_text("1.0,0,0,0,0.9,0,0,0\n")
    code = run(["eval", "--kernel", kernel, "--domain", "ball", "--n", "2",
                "--q", str(q), "--points", str(pts), "--out", str(tmp_path / "o")])
    _one_line_usage_error(code, capsys)
    assert not (tmp_path / "o").exists()


def test_eval_missing_points_file(tmp_path, capsys):
    code = run(["eval", "--kernel", "Nq", "--n", "3", "--points",
                str(tmp_path / "none.csv"), "--out", str(tmp_path / "o")])
    _one_line_usage_error(code, capsys)


def test_missing_config_file(tmp_path, capsys):
    code = run(["--config", str(tmp_path / "none.json"), "suite", "--suites", "morse"])
    _one_line_usage_error(code, capsys)


def test_ratio_on_pinched_is_a_usage_error(tmp_path, capsys):
    # r = |z|^2 - 2 Re(z_1^2) >= -0.2025 in the target box |Re|, |Im| < 0.45,
    # so no draw has r < -0.3 and ratio tables need the ball
    for kernel, n, q in (("E", 2, 0), ("Nq", 3, 1)):
        code = run(["ratio", "--domain", "pinched", "--kernel", kernel, "--n", str(n),
                    "--q", str(q), "--trials", "1", "--resolutions", "4",
                    "--out", str(tmp_path / "o")])
        assert _one_line_usage_error(code, capsys) == (
            "error: pinched: fewer than 32 targets with r < -0.3 in 10000 draws "
            "from the box |Re|, |Im| < 0.45\n")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("n, q", [(2, 1), (3, 0), (3, 2), (4, 3), (5, 0)])
def test_ratio_nq_out_of_range(tmp_path, capsys, n, q):
    from hlkernels import domain, kernels
    with pytest.raises(kernels.KernelError) as want:
        kernels.nq(domain.ball(n), q)
    code = run(["ratio", "--kernel", "Nq", "--n", str(n), "--q", str(q), "--trials", "1",
                "--resolutions", "4", "--out", str(tmp_path / "o")])
    assert _one_line_usage_error(code, capsys).strip() == f"error: {want.value}"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("args", [
    ["--s", "0"], ["--s", "-2"], ["--resolutions", "0"], ["--resolutions", "4,-1"],
    ["--kernel", "Nq", "--p", "0"], ["--kernel", "E", "--n", "2", "--q", "0", "--p", "0"],
    ["--p", "nan"], ["--trials", "0"], ["--kernel", "E", "--n", "2", "--q", "0", "--s", "inf"],
    ["--p", "inf"], ["--a", "nan"], ["--b", "inf"], ["--a=-inf"]])
def test_ratio_bad_numbers_are_usage_errors(tmp_path, capsys, args):
    if "--kernel" not in args:
        args = ["--kernel", "Nq"] + args
    code = run(["ratio", *args, "--out", str(tmp_path / "o")])
    assert "ratio needs p, s, trials and every resolution >= 1" in (
        _one_line_usage_error(code, capsys))
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("eps", ["-0.1", "nan"])
def test_ratio_bad_eps_is_a_usage_error(tmp_path, capsys, eps):
    code = run(["ratio", "--kernel", "E", "--n", "2", "--q", "0", "--resolutions", "4",
                "--trials", "1", "--eps", eps, "--out", str(tmp_path / "o")])
    assert "eps >= 0" in _one_line_usage_error(code, capsys)
    assert not (tmp_path / "o").exists()


def test_ratio_empty_grid_names_domain_h_and_eps(tmp_path, capsys):
    # the default eps, twice the coarsest step, is wider than ball(3) at h = 2.04 / 5
    code = run(["ratio", "--kernel", "Nq", "--n", "3", "--q", "1", "--resolutions", "5,6",
                "--out", str(tmp_path / "o")])
    err = _one_line_usage_error(code, capsys)
    assert err == "error: empty grid: no cell of ball(3) at h=0.408 lies in r < -eps, eps=0.816\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("delta", ["0", "-1", "nan", "inf"])
def test_suite_bad_delta_is_a_usage_error(tmp_path, capsys, delta):
    code = run(["suite", "--domain", "pinched", "--n", "3", "--q", "0", "--suites", "morse",
                "--delta", delta, "--out", str(tmp_path / "o")])
    assert "delta must be positive and finite" in _one_line_usage_error(code, capsys)
    assert not (tmp_path / "o").exists()


def test_domain_error_is_a_usage_error(tmp_path, capsys, monkeypatch):
    from hlkernels import domain, quad

    def too_far(*args, **kwargs):
        raise domain.DiagonalRadiusExceeded("|zeta-z| > 0.75")

    monkeypatch.setattr(quad, "ratio_table", too_far)
    code = run(["ratio", "--kernel", "Nq", "--out", str(tmp_path / "o")])
    _one_line_usage_error(code, capsys)


DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize("kernel, args", [
    # the README's example
    ("E", ["--domain", "ball", "--n", "2", "--s", "3.5", "--resolutions", "12,16,20"]),
    ("Nq", ["--n", "3", "--q", "1", "--resolutions", "8", "--trials", "2"]),
])
def test_ratio_writes_the_recorded_files(tmp_path, kernel, args):
    """Outputs recorded when the CLI still chose the threshold itself.  Every
    key but the ratios, and every CSV column but the last, is unchanged; the
    ratios are float sums whose order of summation has changed since, so
    they are compared to a relative 1e-14."""
    out = tmp_path / "o"
    assert run(["ratio", "--kernel", kernel, *args, "--out", str(out)]) == 0
    meta = f"ratio_{kernel}_meta.json"
    got_meta, want_meta = (json.loads((d / meta).read_text()) for d in (out, DATA))
    got_max, want_max = (m.pop("max_ratio_by_resolution") for m in (got_meta, want_meta))
    assert got_meta == want_meta
    assert got_meta["admissible"] is want_meta["admissible"]
    assert list(got_max) == list(want_max)
    np.testing.assert_allclose(list(got_max.values()), list(want_max.values()),
                               rtol=1e-14, atol=0)
    got, want = ((d / f"ratio_{kernel}.csv").read_text().splitlines() for d in (out, DATA))
    assert got[0] == want[0] == "resolution,p,s,a,b,trial,ratio"
    assert [r.rsplit(",", 1)[0] for r in got] == [r.rsplit(",", 1)[0] for r in want]
    np.testing.assert_allclose([float(r.rsplit(",", 1)[1]) for r in got[1:]],
                               [float(r.rsplit(",", 1)[1]) for r in want[1:]],
                               rtol=1e-14, atol=0)
