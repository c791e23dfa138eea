"""End-to-end command-line checks: golden outputs, JSON fidelity, exit codes."""

import gc
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import qlinalg
from qlinalg import (
    Matrix,
    char_poly,
    det,
    elementary_matrix,
    format_scalar,
    inverse_gauss_jordan,
)
from qlinalg.cli import main

import oracles
from test_cli_boundary import run as run_in_process

Q = Fraction

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- golden files ------------------------------------------------------------------


def test_solve_trace_golden(capsys):
    code, out, _ = run(capsys, "solve", "3 2 | 5 ; -2 1 | -6", "--trace")
    assert code == 0
    assert out == (GOLDEN / "solve_trace.txt").read_text()


def test_det_golden(capsys):
    code, out, _ = run(capsys, "det", "1 0 2; 3 1 -1; 1 2 4")
    assert code == 0
    assert out == (GOLDEN / "det.txt").read_text()


def test_eigen_golden(capsys):
    code, out, _ = run(capsys, "eigen", "2 0 1; 0 1 -2; 0 0 -1")
    assert code == 0
    assert out == (GOLDEN / "eigen.txt").read_text()


def test_gram_schmidt_golden(capsys):
    code, out, _ = run(capsys, "gram-schmidt", "1 0 1 1; 0 1 0 1; 0 1 1 1")
    assert code == 0
    assert out == (GOLDEN / "gram_schmidt.txt").read_text()


# ---- JSON output -------------------------------------------------------------------


def test_solve_json_round_trips_exact_fractions(capsys):
    code, out, _ = run(
        capsys, "solve", "3 2 | 5 ; -2 1 | -6", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verb"] == "solve"
    assert payload["result"]["kind"] == "unique"
    values = [Q(s) for s in payload["result"]["values"]]
    assert values == [Q(17, 7), Q(-8, 7)]


def test_inverse_json_is_lossless(capsys):
    code, out, _ = run(capsys, "inverse", "1 2; 3 4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["invertible"] is True
    rebuilt = Matrix([[Q(s) for s in row] for row in payload["matrix"]])
    assert rebuilt == inverse_gauss_jordan(Matrix([[1, 2], [3, 4]]))


def test_eigen_json_carries_exact_coefficients(capsys):
    code, out, _ = run(capsys, "eigen", "2 0 1; 0 1 -2; 0 0 -1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    coeffs = tuple(Q(s) for s in payload["char_poly"]["coefficients"])
    assert coeffs == char_poly(
        Matrix([[2, 0, 1], [0, 1, -2], [0, 0, -1]])
    ).coefficients
    assert payload["diagonalizable"] is True
    spaces = {e["value"]: e["basis"] for e in payload["eigenvalues"]}
    assert [[Q(s) for s in v] for v in spaces["-1"]] == [[Q(-1, 3), 1, 1]]


def test_json_trace_replays_to_the_printed_matrix(capsys):
    # multiplying the reported elementary matrices onto the input, oldest
    # first, must land exactly on the reported reduced matrix
    code, out, _ = run(
        capsys, "rref", "0 2 4; 1 1 1; 2 0 -2", "--trace", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    current = Matrix([[0, 2, 4], [1, 1, 1], [2, 0, -2]])
    for step in payload["trace"]:
        e = Matrix([[Q(s) for s in row] for row in step["elementary"]])
        current = e @ current
    final = Matrix([[Q(s) for s in row] for row in payload["matrix"]])
    assert current == final


def test_power_json(capsys):
    code, out, _ = run(
        capsys, "power", "2 0 1; 0 1 -2; 0 0 -1", "--power", "6",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [
        ["64", "0", "21"],
        ["0", "1", "0"],
        ["0", "0", "1"],
    ]


# ---- exit codes --------------------------------------------------------------------


def test_inconsistent_system_is_an_answer(capsys):
    code, out, _ = run(capsys, "solve", "1 1 | 1; 1 1 | 2")
    assert code == 0
    assert out == "inconsistent (row 2: 0 = 1)\n"


def test_singular_inverse_is_an_answer(capsys):
    code, out, _ = run(capsys, "inverse", "2 3; 4 6")
    assert code == 0
    assert out == "not invertible (det = 0)\n"


def test_not_linear_is_an_answer(capsys):
    code, out, _ = run(capsys, "transform", "x1; 13")
    assert code == 0
    assert out == "not linear: coordinate 2 has constant 13\n"


def test_not_diagonalizable_is_an_answer(capsys):
    code, out, _ = run(
        capsys, "diagonalize", "1 0 0 0; 0 1 1 1; 0 0 -1 1; 0 0 0 -1"
    )
    assert code == 0
    assert "not diagonalizable: eigenvalue -1" in out
    assert "geometric multiplicity 1 < algebraic multiplicity 2" in out


def test_unsplit_spectrum_is_an_answer(capsys):
    code, out, _ = run(capsys, "diagonalize", "0 -1; 1 0")
    assert code == 0
    assert "eigenvalues do not all lie in Q" in out
    assert "1 + x^2" in out


def test_singular_cramer_coefficient_exits_one(capsys):
    code, _, err = run(capsys, "cramer", "1 1 | 2; 1 1 | 3")
    assert code == 1
    assert err.startswith("error:")


def test_negative_power_of_singular_exits_one(capsys):
    code, _, err = run(capsys, "power", "1 1; 1 1", "--power", "-1")
    assert code == 1
    assert "error:" in err


def test_power_limit_counts_size_and_denominators(capsys):
    # n * max|numerator| * common denominator = 2 * 2 * 3 = 12 gives 3 bits per
    # power; 1 * 1 * 1 = 1 and a zero matrix give none
    assert run(capsys, "power", "1/3 0; 0 2", "--power", "33333")[0] == 0
    code, _, err = run(capsys, "power", "1/3 0; 0 2", "--power", "-33334")
    assert code == 2
    assert "about 100002 bits" in err
    assert run(capsys, "power", "1", "--power", "-100000000")[0] == 0
    assert run(capsys, "power", "0 0; 0 0", "--power", "100000000")[0] == 0


def test_power_limit_counts_every_entry_printed(capsys):
    # 16 * 9 = 144 gives 7 bits per power: each entry is inside its limit, but
    # 256 of them would take seconds and megabytes to print
    r = random.Random(2)
    text = "; ".join(" ".join(str(r.randint(-9, 9)) for _ in range(16)) for _ in range(16))
    start = time.perf_counter()
    code, out, err = run(capsys, "power", text, "--power", "14285")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == (
        "error: --power 14285 would print 256 entries of about 99995 bits, "
        "past the limit of 6400000 bits in all\n"
    )
    # 100 * 1 = 100 gives 6 bits per power: one entry of 642 bits is far inside
    # its limit, 10,000 of them pass the limit in all
    ones = "; ".join(" ".join(["1"] * 100) for _ in range(100))
    code, _, err = run(capsys, "power", ones, "--power", "107")
    assert code == 2
    assert err.startswith("error: --power 107 would print 10000 entries of about 642 bits")


def test_all_zero_gram_schmidt_exits_one(capsys):
    code, _, err = run(capsys, "gram-schmidt", "0 0; 0 0")
    assert code == 1
    assert "error:" in err


def test_dependent_map_points_exit_one(capsys):
    code, _, err = run(capsys, "transform", "1 2 -> 1; 2 4 -> 2")
    assert code == 1
    assert "error:" in err


def test_empty_map_point_exits_two(capsys):
    for pairs in (" -> 1 2", " -> "):
        code, _, err = run(capsys, "transform", pairs)
        assert code == 2, pairs
        assert "error:" in err


def test_empty_map_image_exits_two(capsys):
    for pairs in ("1 -> ", "1 -> ; 2 -> 1"):
        code, _, err = run(capsys, "transform", pairs)
        assert code == 2, pairs
        assert err == "error: an image needs at least one coordinate\n", pairs


def test_missing_bar_is_a_usage_error(capsys):
    code, _, err = run(capsys, "solve", "1 1 1; 1 1 2")
    assert code == 2
    assert "'|'" in err


def test_unexpected_bar_is_a_usage_error(capsys):
    code, _, err = run(capsys, "det", "1 2 | 3; 4 5 | 6")
    assert code == 2


def test_ragged_rows_exit_two(capsys):
    code, _, err = run(capsys, "det", "1 2; 3")
    assert code == 2
    assert "error:" in err


def test_malformed_scalar_exits_two(capsys):
    code, _, err = run(capsys, "det", "1 two; 3 4")
    assert code == 2


def test_cofactor_method_refuses_trace(capsys):
    code, _, err = run(
        capsys, "det", "1 0; 0 1", "--method", "cofactor", "--trace"
    )
    assert code == 2


def _dense_integer_text(n, seed):
    rng = random.Random(seed)
    return "; ".join(
        " ".join(str(rng.randint(-9, 9)) for _ in range(n)) for _ in range(n)
    )


@pytest.mark.parametrize("n", [9, 24])
def test_cofactor_method_answers_past_eight_rows(capsys, n):
    # one line of cofactors costs one reduction, so no size needs a limit
    text = _dense_integer_text(n, 11)
    code, out, err = run(capsys, "det", text, "--method", "cofactor")
    assert code == 0 and err == ""
    assert out == f"{format_scalar(det(Matrix.parse(text)))}\n"


def test_cofactor_method_still_answers_eight_rows(capsys):
    text = _dense_integer_text(8, 11)
    code, out, _ = run(capsys, "det", text, "--method", "cofactor")
    assert code == 0
    assert out == f"{format_scalar(det(Matrix.parse(text)))}\n"


def test_eigen_on_an_unsplit_eight_by_eight_exits_zero():
    env = dict(os.environ, PYTHONPATH=str(Path(qlinalg.__file__).parents[1]))
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "qlinalg", "eigen", oracles.UNSPLIT_8X8],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert time.perf_counter() - started < 5
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    residual = char_poly(Matrix.parse(oracles.UNSPLIT_8X8))
    assert proc.stdout.splitlines()[1:] == [
        "rational eigenvalues: none",
        f"unfactored residual: {residual}",
    ]


def test_bad_entry_flag_exits_two(capsys):
    code, _, err = run(capsys, "inv-entry", "1 0; 0 1", "--entry", "0,1")
    assert code == 2
    assert "1-based" in err


def test_entry_outside_the_matrix_is_reported_one_based(capsys):
    code, out, err = run(capsys, "inv-entry", "1 0; 0 1", "--entry", "3,1")
    assert (code, out) == (2, "")
    assert err == "error: entry (3, 1) outside a 2x2 matrix\n"


# ---- input channels ----------------------------------------------------------------


def test_matrix_from_file(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("1 0 2\n3 1 -1\n1 2 4\n")
    code, out, _ = run(capsys, "det", str(path))
    assert code == 0
    assert out == "16\n"


def test_lone_negative_fraction_is_a_matrix(capsys):
    assert run(capsys, "det", "-1/2") == (0, "-1/2\n", "")
    assert run(capsys, "transpose", "-3/4") == (0, "[ -3/4 ]\n", "")


def test_lone_negative_fraction_is_a_matrix_in_json(capsys):
    code, out, err = run(capsys, "det", "-1/2", "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"verb": "det", "method": "rowred", "value": "-1/2"}
    code, out, err = run(capsys, "transpose", "--format", "json", "-3/4")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"verb": "transpose", "matrix": [["-3/4"]]}


def test_system_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("3 2 | 5 ; -2 1 | -6"))
    code, out, _ = run(capsys, "solve", "-")
    assert code == 0
    assert out == "unique: x1 = 17/7, x2 = -8/7\n"


# ---- a few more verbs, straight through the front door ------------------------------


def test_transform_pairs_with_apply(capsys):
    code, out, _ = run(
        capsys, "transform", "2 0 -> 0 1 4; -1 1 -> 2 1 5", "--apply", "3 5"
    )
    assert code == 0
    assert "T(3, 5) = (10, 9, 41)" in out


def test_kernel_of_coordinate_formulas(capsys):
    code, out, _ = run(capsys, "kernel", "-5x1; 2x2+x3; -x1; 0")
    assert code == 0
    assert "dimension: 1" in out
    assert "(0, -1/2, 1)" in out


def test_range_of_coordinate_formulas(capsys):
    code, out, _ = run(capsys, "range", "-5x1; 2x2+x3; -x1; 0")
    assert code == 0
    assert "(-5, 0, -1, 0)" in out
    assert "(0, 2, 0, 0)" in out


def test_formula_errors_name_their_coordinate(capsys):
    code, out, err = run(capsys, "subspace", "a; 3/0b")
    assert (code, out) == (2, "")
    assert err == "error: coordinate 2: zero denominator in '3/0'\n"
    # "1 2a" once read as 12a
    code, out, err = run(capsys, "transform", "1 2a; b")
    assert (code, out) == (2, "")
    assert err == "error: coordinate 1: cannot read term '1 2a' in '1 2a'\n"
    # "2*" and "3 *" once read as the constants 2 and 3
    for text in ("2*", "3 *"):
        code, out, err = run(capsys, "subspace", f"{text}; a")
        assert (code, out) == (2, "")
        assert err == f"error: coordinate 1: cannot read term {text!r} in {text!r}\n"


def test_subspace_refuses_a_repeated_parameter(capsys):
    code, out, err = run(capsys, "subspace", "a; b", "--params", "a,a,b")
    assert (code, out) == (2, "")
    assert err == "error: parameter 'a' is declared twice\n"


def test_subspace_verdict_no(capsys):
    code, out, _ = run(capsys, "subspace", "x; 1")
    assert code == 0
    assert out.startswith("subspace: no")


def test_dot_verb(capsys):
    code, out, _ = run(capsys, "dot", "2 4 1 3", "0 1 2 5")
    assert code == 0
    assert out == "21\n"


def test_cramer_verb(capsys):
    code, out, _ = run(capsys, "cramer", "2 -1 | 7; 3 4 | -5")
    assert code == 0
    assert out == "x1 = 23/11, x2 = -31/11\n"


def test_span_member_verb(capsys):
    code, out, _ = run(
        capsys, "span-member", "1 1 1 1; 0 0 1 1", "1 1 2 2"
    )
    assert code == 0
    assert out.startswith("member: yes")


def test_non_utf8_file_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "m.txt"
    path.write_bytes(b"\xff\xfe1 2; 3 4\n")
    code, out, err = run(capsys, "det", str(path))
    assert code == 2
    assert out == ""
    assert err == f"error: file {str(path)!r} is not UTF-8 text\n"


def test_a_directory_or_missing_path_is_read_as_matrix_text(capsys, tmp_path):
    for arg in (str(tmp_path), str(tmp_path / "missing.txt")):
        code, out, err = run(capsys, "det", arg)
        assert (code, out) == (2, "")
        assert err == f"error: not an exact scalar: {arg!r}\n"


def test_trace_builds_one_elementary_matrix_per_row_operation(capsys, monkeypatch):
    import qlinalg.cli as cli

    calls = []

    def counting(op, n):
        calls.append(op)
        return elementary_matrix(op, n)

    monkeypatch.setattr(cli, "elementary_matrix", counting)
    code, out, _ = run(capsys, "solve", "3 2 | 5 ; -2 1 | -6", "--trace")
    assert code == 0
    assert out == (GOLDEN / "solve_trace.txt").read_text()
    assert len(calls) == 4


# ---- integers past the interpreter's 4300-digit string limit ----------------------


def _qlinalg_subprocess(*argv):
    env = dict(os.environ, PYTHONPATH=str(Path(qlinalg.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "qlinalg", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def _long_str(n: int) -> str:
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


def test_power_prints_a_6021_digit_entry():
    proc = _qlinalg_subprocess("power", "2", "--power", "20000")
    assert proc.returncode == 0
    assert proc.stderr == ""
    digits = _long_str(2**20000)
    assert len(digits) == 6021
    assert proc.stdout == f"[ {digits} ]\n"


def test_a_power_past_the_entry_size_limit_is_refused_before_computing():
    start = time.perf_counter()
    proc = _qlinalg_subprocess("power", "2", "--power", "100000000")
    assert time.perf_counter() - start < 5
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr == (
        "error: --power 100000000 would build entries of about 100000000 bits, "
        "past the limit of 100000\n"
    )


def test_adjoint_of_a_40x40_answers_in_bounded_time():
    rng = random.Random(4040)
    text = "; ".join(" ".join(str(rng.randint(-9, 9)) for _ in range(40)) for _ in range(40))
    env = dict(os.environ, PYTHONPATH=str(Path(qlinalg.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "qlinalg", "adjoint", text],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr
    assert len(proc.stdout.splitlines()) == 40


def test_det_reads_a_5000_digit_entry():
    entry = "7" * 5000
    proc = _qlinalg_subprocess("det", f"{entry} 0; 0 1")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == f"{entry}\n"


# ---- the process entry ---------------------------------------------------------------


def _record_entry(monkeypatch):
    """Wrap ``cli.main`` and stub ``gc.freeze``, both logging to one list."""
    import qlinalg.cli as cli

    calls, real_main = [], cli.main

    def logged_main():
        try:
            return real_main()
        finally:
            calls.append("main")

    monkeypatch.setattr(cli, "main", logged_main)
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    return cli.run, calls


@pytest.mark.parametrize(
    "argv, code", [(["det", "1 2; 3 4"], 0), (["cramer", "1 1 | 2; 1 1 | 3"], 1)]
)
def test_run_returns_the_status_of_main_then_freezes(capsys, monkeypatch, argv, code):
    run_entry, calls = _record_entry(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["qlinalg", *argv])
    assert run_entry() == code
    assert calls == ["main", "freeze"]
    assert capsys.readouterr() == run(capsys, *argv)[1:]


@pytest.mark.parametrize("argv, code", [(["det"], 2), (["--help"], 0)])
def test_run_freezes_when_argparse_ends_the_run(capsys, monkeypatch, argv, code):
    run_entry, calls = _record_entry(monkeypatch)
    monkeypatch.setattr(sys, "argv", ["qlinalg", *argv])
    with pytest.raises(SystemExit) as exc:
        run_entry()
    assert exc.value.code == code
    assert calls == ["main", "freeze"]


@pytest.mark.parametrize(
    "argv",
    [
        ["det", "1 2; 3 4"],
        ["det", "1 2; 3 4", "--format", "json"],
        ["solve", "3 2 | 5 ; -2 1 | -6", "--trace"],
        ["det", "1 2; 3"],
    ],
)
def test_main_in_process_never_freezes(capsys, monkeypatch, argv):
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(argv))
    main(argv)
    assert frozen == []


def test_the_installed_script_enters_through_run():
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["scripts"] == {"qlinalg": "qlinalg.cli:run"}


@pytest.mark.parametrize(
    "argv",
    [
        ["det", "1 0 2; 3 1 -1; 1 2 4"],
        ["solve", "1 2 1 | 3; 2 4 0 | 2", "--format", "json"],
        ["reduce", "0 3 6; 2 4 1; 1 2 1/2", "--form", "echelon", "--trace"],
        ["cramer", "1 1 | 2; 1 1 | 3"],
        ["inv-entry", "1 0; 0 1", "--entry", "0,1"],
        ["det", "1 two; 3 4"],
    ],
)
def test_a_process_answers_as_main_does_in_process(argv):
    proc = _qlinalg_subprocess(*argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == run_in_process(argv)


@pytest.mark.parametrize(
    "verb, text",
    [
        # fills stdout's buffer, so the pipe breaks inside main's printing
        ("inverse", _dense_integer_text(40, 4040)),
        # fits the buffer, so the pipe breaks in main's flush
        ("det", "1 2; 3 4"),
    ],
)
def test_a_reader_that_closes_the_pipe_early_gets_no_traceback(verb, text):
    env = dict(os.environ, PYTHONPATH=str(Path(qlinalg.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "qlinalg", verb, text],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert (proc.returncode, err) == (0, b"")


# ---- the exit status follows the error's type ----------------------------------------

_IMPOSSIBLE = {
    "SingularCoefficient",
    "NegativePowerOfSingular",
    "DependentPoints",
    "NotSpanning",
    "InputDependent",
    "ZeroVectorPresent",
    "AllZeroInput",
}


def test_exactly_the_impossible_errors_exit_one(capsys, monkeypatch):
    import qlinalg.cli as cli
    import qlinalg.errors as errors

    statuses = {}
    for name, cls in vars(errors).items():
        if name.startswith("_") or not isinstance(cls, type):
            continue
        if not issubclass(cls, errors.LinAlgError):
            continue

        def raising(args, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "_cmd_det", raising)
        statuses[name] = run(capsys, "det", "1")[:2]
    assert {name for name, (code, _) in statuses.items() if code == 1} == _IMPOSSIBLE
    assert {code for code, _ in statuses.values()} == {1, 2}
    assert {out for _, out in statuses.values()} == {""}


@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["det", "1 2; 3"], 2),
        (["cramer", "1 2 | 3; 2 4 | 6"], 1),
        # argparse's own exits: a usage error on stderr, the help on stdout
        (["det"], 2),
        (["--help"], 0),
    ],
)
def test_a_closed_stderr_does_not_change_the_status(argv, code, unbuffered):
    env = dict(os.environ, PYTHONPATH=str(Path(qlinalg.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qlinalg", *argv],
            stdout=write_end, stderr=write_end, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == code
