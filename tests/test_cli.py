import json
import os

import pytest

from bumpless import bpd, cli, perms
from bumpless.schubert import principal_value, single_schubert_poly, x_ring

DIAG_214365 = [
    "z[1,3]*z[2,1]^2*z[3,2]*z[3,4]*z[4,3]*z[5,5]",
    "z[1,2]*z[2,3]*z[3,1]*z[3,4]*z[4,3]*z[5,5]",
    "z[1,2]*z[2,1]*z[3,4]*z[4,3]*z[5,5]",
    "z[1,2]*z[2,1]*z[3,3]",
    "z[1,1]",
]


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_count_agrees_with_polynomial_specialization(capsys):
    code, out = run(capsys, "bpd", "count", "4721653")
    assert code == 0
    w = perms.perm_from_text("4721653")
    assert int(out) == principal_value(single_schubert_poly(w, x_ring(7)))


def test_initial_ideal_display(capsys):
    code, out = run(capsys, "ideal", "init", "214365", "--order", "diag")
    assert code == 0
    assert out.splitlines() == DIAG_214365


def test_verify_main_sweep_exit_zero(capsys):
    code, out = run(capsys, "verify", "main", "--all-sn", "3")
    assert code == 0
    assert "6 passed, 0 failed" in out


def test_json_report_schema_and_determinism(capsys):
    args = ("--format", "json", "verify", "theoremB", "132", "312")
    code, first = run(capsys, *args)
    assert code == 0
    doc = json.loads(first)
    assert doc["schema"] == "bumpless-report/1"
    assert doc["failed"] == 0
    assert {r["case"] for r in doc["reports"]} == {"132", "312"}
    assert all(
        set(r) == {"case", "statement", "status", "witness"} for r in doc["reports"]
    )
    code, second = run(capsys, *args)
    assert first == second


def test_bpd_json_round_trips(capsys):
    code, out = run(capsys, "--format", "json", "bpd", "enum", "132")
    grids = [bpd.bpd_from_json(g) for g in json.loads(out)["bpds"]]
    assert len(grids) == 2
    assert all(bpd.permutation_of(B) == (1, 3, 2) for B in grids)


def test_bad_input_exits_two(capsys):
    assert run(capsys, "bpd", "count", "worms")[0] == 2
    assert run(capsys, "verify", "main", "9")[0] == 2
    assert run(capsys, "verify", "ycompat", "321")[0] == 2
    assert run(capsys, "mono", "ass", "q^2")[0] == 2


def test_failed_case_exits_one(capsys, monkeypatch):
    def rigged(case):
        return {"case": "x", "statement": "s", "status": "fail", "witness": {}}

    monkeypatch.setattr(cli, "run_verify_case", rigged)
    code, out = run(capsys, "verify", "theoremB", "132")
    assert code == 1
    assert "0 passed, 1 failed" in out


def test_lattice_commands(capsys):
    code, joined = run(capsys, "lattice", "join", "213", "132")
    assert code == 0
    assert joined == "0 1 0\n1 -1 1\n0 1 0\n"
    code, out = run(capsys, "lattice", "perm", "0 1 0;1 -1 1;0 1 0")
    assert out.split() == ["231", "312"]
    code, out = run(capsys, "lattice", "decompose", "0 1 0;1 -1 1;0 1 0")
    assert out.split() == ["132", "213"]
    code, out = run(capsys, "lattice", "meet", "231", "312")
    assert out == "0 1 0\n1 -1 1\n0 1 0\n"


def test_mono_commands(capsys):
    code, out = run(capsys, "mono", "ass", "z[1,1]^2*z[2,2], z[1,1]*z[1,2]")
    assert code == 0
    assert "z[1,1]" in out
    code, out = run(capsys, "mono", "kpoly", "z[1,1]", "--grading", "standard")
    assert out.strip() == "-q + 1"
    code, out = run(capsys, "mono", "multidegree", "z[1,1], z[1,2]*z[2,1]")
    assert out.strip() == "x1^2 + x1*x2 + 2*x1*y1 + x1*y2 + x2*y1 + y1^2 + y1*y2"


def test_beta_substitution(capsys):
    code, sym = run(capsys, "poly", "groth", "21")
    assert sym.strip() == "x1*y1*beta + x1 + y1"
    code, flat = run(capsys, "poly", "groth", "21", "--beta", "0")
    assert flat.strip() == "x1 + y1"


def test_cache_dir_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.delenv("BUMPLESS_CACHE_DIR", raising=False)
    code, _ = run(capsys, "--cache-dir", str(tmp_path), "ideal", "gb", "21543")
    assert code == 0
    assert list(tmp_path.glob("gb-*.json"))
    assert "BUMPLESS_CACHE_DIR" not in os.environ


def test_cache_dir_flag_restores_the_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BUMPLESS_CACHE_DIR", str(tmp_path / "outer"))
    code, _ = run(capsys, "--cache-dir", str(tmp_path / "inner"), "ideal", "gb", "2143")
    assert code == 0
    assert list((tmp_path / "inner").glob("gb-*.json"))
    assert os.environ["BUMPLESS_CACHE_DIR"] == str(tmp_path / "outer")


def test_bad_workers_environment_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("BUMPLESS_WORKERS", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(["bpd", "count", "21"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    monkeypatch.setenv("BUMPLESS_WORKERS", "3")
    assert cli.build_parser().parse_args(["bpd", "count", "21"]).workers == 3


def test_worker_pool_matches_sequential(capsys):
    seq = run(capsys, "--workers", "1", "verify", "transition", "--all-sn", "3")
    par = run(capsys, "--workers", "2", "verify", "transition", "--all-sn", "3")
    assert seq == par
    assert seq[0] == 0
