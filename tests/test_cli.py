import concurrent.futures
import json
import os
import subprocess
import sys

import pytest

from bumpless import bpd, cache, cli, perms
from bumpless import groebner as gb
from bumpless.rings import matrix_ring
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


def test_verify_asm_names_each_case_on_one_line(capsys):
    rows = "0 1 0; 1 -1 1; 0 1 0"
    code, out = run(capsys, "--workers", "1", "verify", "asm", rows, "0 1; 1 0")
    assert code == 0
    assert out.splitlines() == [
        f"PASS {rows}  join-initial-ideal-three-ways",
        "PASS 0 1; 1 0  join-initial-ideal-three-ways",
        "2 passed, 0 failed",
    ]
    code, out = run(capsys, "--format", "json", "verify", "asm", rows)
    assert code == 0
    assert [r["case"] for r in json.loads(out)["reports"]] == [rows]


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


def test_out_of_memory_exits_two(capsys, monkeypatch):
    def exhausted(args):
        raise MemoryError

    monkeypatch.setattr(cli, "cmd_poly", exhausted)
    assert cli.main(["poly", "dschubert", "12345687"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory\n"


def test_deeply_nested_polynomial_is_a_usage_error(capsys):
    text = "(" * 400 + "z[1,1]" + ")" * 400
    assert cli.main(["mono", "decompose", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: polynomial text nests too deeply\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["ideal", "init", ""],
        ["lattice", "perm", ""],
        ["verify", "asm", ""],
        ["verify", "asm", ";"],
        ["lattice", "join", "", ""],
    ],
)
def test_empty_matrix_text_is_a_usage_error(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty matrix text\n"


def test_schubert_of_a_long_identity_does_not_recurse(capsys):
    word = ",".join(map(str, range(1, 51)))
    assert run(capsys, "poly", "schubert", word) == (0, "1\n")


def test_high_power_multidegree_does_not_recurse(capsys):
    argv = ("mono", "multidegree", "z[1,1]^1200", "--grading", "standard")
    assert run(capsys, *argv) == (0, "1200*q\n")


@pytest.mark.parametrize(
    "action, expected",
    [
        ("ass", "z[100000,1]\n"),
        ("multidegree", "x100000 + y1\n"),
        ("kpoly", "-x100000*y1 + 1\n"),
    ],
)
def test_mono_reads_only_the_cells_it_names(action, expected, capsys):
    # A 100000 by 100000 matrix ring would not fit in memory.
    assert run(capsys, "mono", action, "z[100000,1]") == (0, expected)


def test_mono_ring_reads_its_cells_right_to_left_row_by_row():
    ring = cli._monomial_ideal("z[3,1]*z[1,2], z[2,2], z[1,3]*z[3,3]").ring
    assert ring.names == ("z[1,2]", "z[1,3]", "z[2,2]", "z[3,1]", "z[3,3]")
    assert ring.layout == (1, 0, 2, 4, 3)


@pytest.mark.parametrize(
    "text, bad",
    [("z[0,0]", "z[0,0]"), ("z[0,3], z[2,2]", "z[0,3]"), ("z[1,1]*z[2,0]", "z[2,0]")],
)
def test_index_zero_cell_is_an_unknown_variable(text, bad, capsys):
    assert cli.main(["mono", "ass", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown variable {bad!r}\n"


@pytest.mark.parametrize(
    "action, expected",
    [
        ("kpoly", "1100*q^1101 - 1101*q^1100 + 1\n"),
        ("multidegree", "605550*q^2\n"),
    ],
)
def test_many_generators_do_not_recurse(action, expected, capsys):
    # (z[1,1], z[1,2])^1100: K-polynomials used to recurse once per generator.
    gens = ", ".join(f"z[1,1]^{a}*z[1,2]^{1100 - a}" for a in range(1101))
    argv = ("mono", action, gens, "--grading", "standard")
    assert run(capsys, *argv) == (0, expected)


def test_ycompat_antidiag_failure_witness(capsys):
    # Under antidiag the corner refinement changes the initial ideal, and
    # the refined leads are re-packed into the plain ring for the witness.
    argv = ("--format", "json", "verify", "ycompat", "1342", "--order", "antidiag")
    code, out = run(capsys, *argv)
    assert code == 1
    (report,) = json.loads(out)["reports"]
    assert report["case"] == "1342@3,2"
    assert report["status"] == "fail"
    assert report["witness"] == {
        "plain": ["z[2,2]*z[3,1]", "z[1,2]*z[3,1]", "z[1,2]*z[2,1]"],
        "refined": ["z[2,1]*z[3,2]", "z[1,1]*z[3,2]", "z[1,2]*z[2,1]"],
    }


@pytest.mark.parametrize(
    "argv",
    [
        ["theoremB", "2143", "--order", "diag"],
        ["asm", "2143", "--order", "antidiag"],
        ["transition", "2143", "--corner", "3,3", "--order", "antidiag"],
        ["groth-transition", "2143", "--order", "diag"],
        ["linkdecomp", "--all-sn", "3", "--order", "antidiag"],
        ["main", "2143", "--corner", "3,3"],
        ["theoremB", "2143", "--corner", "3,3"],
        ["asm", "--all-sn", "3", "--corner", "3,3"],
    ],
)
def test_flag_the_target_does_not_read_is_a_usage_error(capsys, argv):
    flag = "--corner" if "--corner" in argv and "--order" not in argv else "--order"
    assert cli.main(["--workers", "1", "verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: verify {argv[0]} takes no {flag}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["main", "21", "--order", "diag"],
        ["ycompat", "2143", "--corner", "3,3", "--order", "diag"],
        ["hilbert", "2143", "--corner", "3,3", "--order", "antidiag"],
        ["transition", "2143", "--corner", "3,3"],
        ["linkdecomp", "2143", "--corner", "3,3"],
    ],
)
def test_flags_the_target_reads_are_accepted(capsys, argv):
    code, out = run(capsys, "--workers", "1", "verify", *argv)
    assert code == 0
    assert out.endswith("1 passed, 0 failed\n")


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


@pytest.mark.parametrize("argv", [["meet", "123", "12"], ["join", "12", "123"]])
def test_mixed_size_lattice_operation_is_a_usage_error(capsys, argv):
    assert cli.main(["lattice", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: ASMs must share one matrix size\n"


def test_mono_commands(capsys):
    code, out = run(capsys, "mono", "ass", "z[1,1]^2*z[2,2], z[1,1]*z[1,2]")
    assert code == 0
    assert "z[1,1]" in out
    code, out = run(capsys, "mono", "kpoly", "z[1,1]", "--grading", "standard")
    assert out.strip() == "-q + 1"
    code, out = run(capsys, "mono", "multidegree", "z[1,1], z[1,2]*z[2,1]")
    assert out.strip() == "x1^2 + x1*x2 + 2*x1*y1 + x1*y2 + x2*y1 + y1^2 + y1*y2"


@pytest.mark.parametrize(
    "action, text, payload",
    [
        ("decompose", "1\n", {"components": [["1"]]}),
        ("ass", "", {"primes": []}),
        ("kpoly", "0\n", {"poly": {}}),
        ("multidegree", "0\n", {"poly": {}}),
    ],
)
def test_mono_on_the_unit_ideal(capsys, action, text, payload):
    # The unit ideal decomposes as itself and has no primes; its
    # K-polynomial and multidegree are zero.
    assert run(capsys, "mono", action, "z[1,1], 1") == (0, text)
    code, out = run(capsys, "--format", "json", "mono", action, "z[1,1], 1")
    assert code == 0
    assert json.loads(out) == {"schema": cli.SCHEMA, **payload}


@pytest.mark.parametrize("word", ["1", "1234"])
@pytest.mark.parametrize(
    "target, statement, witness",
    [
        ("theoremB", "antidiagonal-degeneration", {"crossing-sets": [[]]}),
        ("main", "components-match-tilings", {"components": 1}),
    ],
)
def test_verify_reports_on_the_identity(capsys, word, target, statement, witness):
    # The identity's ideal is zero: one component, the prime on no
    # variables, for its one tiling without blank tiles.
    code, out = run(capsys, "--format", "json", "verify", target, word)
    assert code == 0
    assert json.loads(out) == {
        "schema": cli.SCHEMA,
        "failed": 0,
        "reports": [
            {"case": word, "statement": statement, "status": "pass", "witness": witness}
        ],
    }


@pytest.mark.parametrize(
    "words, message",
    [
        (["123", "21"], "permutations must share one matrix size"),
        (["21", "123"], "permutations must share one matrix size"),
        (["21", "21"], "permutations must be distinct"),
    ],
)
@pytest.mark.parametrize("target", ["ycompat", "main"])
def test_verify_checks_a_family_like_main(capsys, target, words, message):
    corner = ["--corner", "1,1"] if target == "ycompat" else []
    assert cli.main(["--workers", "1", "verify", target, *words, *corner]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "words, message",
    [
        (["21", "21"], "permutations must be distinct"),
        (["21", "123"], "permutations must share one matrix size"),
    ],
)
def test_ycompat_checks_the_family_before_it_picks_a_cell(capsys, words, message):
    # Neither family has an accessible cell; the family's fault comes first.
    assert cli.main(["--workers", "1", "verify", "ycompat", *words]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_decompose_prints_only_irredundant_components(capsys):
    # (z[1,1], z[2,1]) contains the component (z[1,1]), so it is not listed.
    code, out = run(capsys, "mono", "decompose", "z[1,1]*z[2,1], z[1,1]*z[2,2]")
    assert code == 0
    assert out == "z[2,1] , z[2,2]\nz[1,1]\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["poly", "schubert", "21", "--beta", "1"], "poly schubert takes no --beta"),
        (["poly", "dschubert", "21", "--beta", "0"], "poly dschubert takes no --beta"),
        (["mono", "decompose", "z[1,1]", "--grading", "rows"],
         "mono decompose takes no --grading"),
        (["mono", "ass", "z[1,1]", "--grading", "rows-columns"],
         "mono ass takes no --grading"),
    ],
)
def test_flag_the_action_does_not_read_is_a_usage_error(capsys, argv, message):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("text", ["z[1,1]/0", "z[1,1]/(1-1)"])
def test_division_by_zero_is_a_usage_error(capsys, text):
    assert cli.main(["mono", "decompose", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: division by zero in polynomial text\n"


@pytest.mark.parametrize("text", ["z[1,1]*", "z[1,1]^", "(z[1,1]"])
def test_truncated_polynomial_names_the_end_of_the_text(capsys, text):
    assert cli.main(["mono", "decompose", text]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: unexpected end of polynomial text\n"


def test_size_eight_double_polynomial_is_a_tiling_sum(capsys):
    # A word of own size 8: the tiling sum walks its rows and never
    # multiplies out the 28-factor staircase of S8.
    code, out = run(capsys, "poly", "dschubert", "12345687")
    assert code == 0
    assert out == (
        "x1 + x2 + x3 + x4 + x5 + x6 + x7 + y1 + y2 + y3 + y4 + y5 + y6 + y7\n"
    )


def test_beta_substitution(capsys):
    code, sym = run(capsys, "poly", "groth", "21")
    assert sym.strip() == "x1*y1*beta + x1 + y1"
    code, flat = run(capsys, "poly", "groth", "21", "--beta", "0")
    assert flat.strip() == "x1 + y1"


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records the pool size it was
    asked for and runs the cases in this process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "workers, cores, expected",
    [("64", 3, [3]), ("64", 64, [6]), ("2", 64, [2]), ("5", 1, []), ("1", 64, [])],
)
def test_worker_pool_is_clamped(capsys, monkeypatch, workers, cores, expected):
    # verify transition --all-sn 3 has six cases
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    code, _ = run(capsys, "--workers", workers, "verify", "transition", "--all-sn", "3")
    assert code == 0
    assert RecordingPool.sizes == expected


@pytest.mark.parametrize(
    # A BUMPLESS_WORKERS left in the environment is not read in its place.
    "argv, env",
    [(["--workers", "0"], None), (["--workers", "0"], "4"), (["--workers", "-2"], None)],
)
def test_workers_below_one_is_a_usage_error(capsys, monkeypatch, argv, env):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    if env is not None:
        monkeypatch.setenv("BUMPLESS_WORKERS", env)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["verify", "transition", "--all-sn", "3"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert RecordingPool.sizes == []


@pytest.mark.parametrize("target", ["asm", "theoremB", "main"])
@pytest.mark.parametrize("size", ["0", "-1"])
def test_all_sn_below_one_is_a_usage_error(capsys, target, size):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", target, "--all-sn", size])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"error: argument --all-sn: need a matrix size of at least 1, got {size}\n"
    )


@pytest.mark.parametrize(
    "argv, message",
    [
        (["main", "21", "--all-sn", "2"], "give case inputs or --all-sn N, not both"),
        (["asm", "0 1; 1 0", "--all-sn", "2"], "give case inputs or --all-sn N, not both"),
        (["transition"], "give case inputs or --all-sn N"),
    ],
)
def test_case_inputs_or_a_sweep_but_not_both(capsys, argv, message):
    assert cli.main(["--workers", "1", "verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("words", [["1"], ["1234"], ["1", "12"]])
@pytest.mark.parametrize("target", ["transition", "groth-transition", "hilbert", "linkdecomp"])
def test_explicit_words_without_a_corner_are_a_usage_error(capsys, target, words):
    # Explicit inputs that give no case do not pass as "0 passed".
    assert cli.main(["--workers", "1", "verify", target, *words]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no lower outside corner in {' '.join(words)}\n"


@pytest.mark.parametrize(
    "target", ["transition", "groth-transition", "hilbert", "linkdecomp", "ycompat"]
)
def test_a_sweep_without_a_case_still_reports(capsys, target):
    argv = ("--workers", "1", "verify", target, "--all-sn", "1")
    assert run(capsys, *argv) == (0, "0 passed, 0 failed\n")


def test_importing_the_cli_loads_no_worker_pool():
    # concurrent.futures is imported where verify forks its pool, and
    # nothing imported with the CLI needs dataclasses.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, bumpless.cli; "
        "print(sorted({'concurrent.futures', 'dataclasses'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"


def test_worker_pool_matches_sequential(capsys):
    seq = run(capsys, "--workers", "1", "verify", "transition", "--all-sn", "3")
    par = run(capsys, "--workers", "2", "verify", "transition", "--all-sn", "3")
    assert seq == par
    assert seq[0] == 0


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    real = cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    outs = [run(capsys, "bpd", "count", "2143") for _ in range(3)]
    assert outs == [(0, "3\n")] * 3
    assert run(capsys, "--format", "json", "poly", "schubert", "21")[0] == 0
    assert len(built) == 1


def test_no_option_carries_over_to_the_next_call(capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    argv = ("verify", "transition", "--all-sn", "3")
    code, first = run(capsys, "--format", "json", "--workers", "2", *argv)
    assert code == 0
    reports = json.loads(first)["reports"]
    code, second = run(capsys, *argv)
    assert code == 0
    assert second.splitlines()[:-1] == [
        f"{r['status'].upper():4} {r['case']}  {r['statement']}" for r in reports
    ]
    assert RecordingPool.sizes == [2, 4]


def test_calls_change_neither_the_environment_nor_the_parser(capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(cli, "_parser", None)
    env = dict(os.environ)
    calls = [
        (["bpd", "count", "2143"], 0),
        (["--format", "json", "ideal", "gb", "21543"], 0),
        (["lattice", "meet", "123", "12"], 2),
        (["--workers", "2", "verify", "transition", "--all-sn", "3"], 0),
        (["mono", "kpoly", "z[1,1]", "--grading", "standard"], 0),
    ]
    for argv, expected in calls:
        assert cli.main(argv) == expected
        assert dict(os.environ) == env
        assert cli._parser.get_default("workers") is None
    capsys.readouterr()
    assert RecordingPool.sizes == [2]


def test_unknown_cache_dir_option_is_a_usage_error(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--cache-dir", str(tmp_path), "ideal", "gb", "21543"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not any(tmp_path.iterdir())


def capture(capsys, *argv):
    code = cli.main(list(argv))
    return code, *capsys.readouterr()


@pytest.mark.parametrize("store", ["regular file", "garbage database"])
def test_unusable_basis_store_changes_no_output(capsys, monkeypatch, tmp_path, store):
    monkeypatch.setenv("BUMPLESS_CACHE_DIR", str(tmp_path / "fresh"))
    expected = capture(capsys, "ideal", "gb", "21543")
    assert expected[0] == 0 and expected[2] == ""
    if store == "regular file":
        target = tmp_path / "file"
        target.write_text("not a directory")
        monkeypatch.setenv("BUMPLESS_CACHE_DIR", str(target))
    else:
        target = tmp_path / "garbage" / cache.DATABASE
        target.parent.mkdir()
        target.write_bytes(b"not a database " * 512)
        monkeypatch.setenv("BUMPLESS_CACHE_DIR", str(target.parent))
    before = target.read_bytes()
    for _ in range(2):
        assert capture(capsys, "ideal", "gb", "21543") == expected
    assert target.read_bytes() == before


def test_entries_written_by_forked_workers_are_hits_in_the_parent(
    capsys, monkeypatch, tmp_path
):
    monkeypatch.setenv("BUMPLESS_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    ring = matrix_ring(4, "diag")
    assert cache.load_basis(ring, "0" * 64) is None  # opens the store here
    code, _ = run(capsys, "--workers", "2", "verify", "main", "--all-sn", "4")
    assert code == 0
    hits = []
    load = cache.load_basis

    def record(ring, key):
        hits.append(load(ring, key))
        return hits[-1]

    def refuse(ring, key, basis):
        raise AssertionError("a basis the workers stored was recomputed")

    monkeypatch.setattr(cache, "load_basis", record)
    monkeypatch.setattr(cache, "store_basis", refuse)
    for w in perms.all_perms(4):
        gb.buchberger(gb.fulton_generators(w, ring))
    assert hits and all(hit is not None for hit in hits)


def test_workers_environment_is_not_read(capsys, monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setenv("BUMPLESS_WORKERS", "abc")
    argv = ("verify", "transition", "--all-sn", "3")
    code, default = run(capsys, *argv)
    assert code == 0
    assert run(capsys, "--workers", "2", *argv) == (0, default)
    # six cases, so the three cores bound the default pool
    assert RecordingPool.sizes == [3, 2]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ideal", "init", "21", "--order", "yref:1,1:" * 3000 + "diag"],
         "a yref base must be diag, antidiag or col-lex, not 'yref:1,1:"),
        (["verify", "ycompat", "2143", "--corner", "3,3", "--order", "yref:2,2:diag"],
         "a yref base must be diag, antidiag or col-lex, not 'yref:2,2:diag'"),
        (["verify", "transition", "2143", "--corner", "3x3"],
         "expected a cell like 3,2 — got '3x3'"),
        (["lattice", "perm", "0 1/1 0"], "ASM text must contain integer entries"),
    ],
    ids=["deep-yref-ideal", "tau-base", "cell-x", "asm-slash"],
)
def test_input_outside_the_grammar_is_a_usage_error(capsys, argv, message):
    assert cli.main(["--workers", "1", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ideal", "fulton", "21"], "argument kind: invalid choice: 'fulton'"),
        (["ideal", "init", "21", "--order", "tau:2,2"], "error: unknown order 'tau:2,2'\n"),
        (["mono", "kpoly", "z[1,1]", "--order", "diag"],
         "error: unrecognized arguments: --order diag\n"),
    ],
    ids=["ideal-fulton", "tau-order", "mono-order"],
)
def test_removed_spellings_are_usage_errors(capsys, argv, message):
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects an unknown choice or flag
        code = exc.code
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("order", ["diag", "antidiag", "col-lex"])
def test_ideal_asm_of_a_word_prints_its_fulton_generators(capsys, order):
    for n in (4, 5):
        ring = matrix_ring(n, order)
        for w in perms.all_perms(n):
            code, out = run(capsys, "ideal", "asm", perms.perm_to_text(w), "--order", order)
            assert code == 0
            assert out.splitlines() == [g.to_text() for g in gb.fulton_generators(w, ring)]


def help_text(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--help"])
    assert exc.value.code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize(
    "command", [(), ("bpd",), ("poly",), ("ideal",), ("mono",), ("lattice",), ("verify",)]
)
def test_help_is_the_same_on_a_reused_parser(capsys, monkeypatch, command):
    monkeypatch.setattr(cli, "_parser", None)
    first = help_text(capsys, *command)
    assert first.startswith("usage: bumpless")
    run(capsys, "--format", "json", "--workers", "1", "verify", "theoremB", "132")
    run(capsys, "lattice", "meet", "123", "12")
    run(capsys, "mono", "kpoly", "z[1,1]", "--grading", "standard")
    for other in ("bpd", "verify"):
        help_text(capsys, other)
    assert help_text(capsys, *command) == first
