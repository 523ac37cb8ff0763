"""CLI contract: exit codes, outputs, determinism."""

import json
from pathlib import Path

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


def test_suite_nkern_needs_n3(tmp_path, capsys):
    code = run(["suite", "--domain", "pinched", "--n", "2", "--suites", "nkern",
                "--out", str(tmp_path / "o")])
    _one_line_usage_error(code, capsys)
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
    # no point of the target box has r < -0.3 on pinched
    code = run(["ratio", "--domain", "pinched", "--kernel", "Nq", "--n", "3", "--q", "1",
                "--trials", "1", "--resolutions", "4", "--out", str(tmp_path / "o")])
    _one_line_usage_error(code, capsys)


def test_domain_error_is_a_usage_error(tmp_path, capsys, monkeypatch):
    from hlkernels import domain, quad

    def too_far(*args, **kwargs):
        raise domain.DiagonalRadiusExceeded("|zeta-z| > 0.75")

    monkeypatch.setattr(quad, "ratio_table", too_far)
    code = run(["ratio", "--kernel", "Nq", "--out", str(tmp_path / "o")])
    _one_line_usage_error(code, capsys)
