"""The CLI's text boundary: exit-code contract per verb, round trips, junk input."""

import argparse
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qlinalg import Matrix, cli, parse_matrix_text, parse_scalar, render_inline
from qlinalg.cli import build_parser

from replay import run

# verb: (arguments of one answer, arguments of one malformed input)
CONTRACT = {
    "solve": (["3 2 | 5 ; -2 1 | -6"], ["3 2 5; -2 1 -6"]),
    "rref": (["0 2 4; 1 1 1; 2 0 -2"], ["0 2; 1 1 1"]),
    "reduce": (["1 2; 3 4", "--form", "echelon"], ["1 2; 3 four"]),
    "inverse": (["1 2; 3 4"], ["1 2 3; 4 5 6"]),
    "det": (["1 0 2; 3 1 -1; 1 2 4"], ["1 2; 3 4/0"]),
    "cofactor": (["1 2; 3 4"], ["1 2"]),
    "cramer": (["2 -1 | 7; 3 4 | -5"], ["2 -1 7; 3 4 -5"]),
    "adjoint": (["1 2; 3 4"], ["1 2 | 3; 4 5 | 6"]),
    "inv-entry": (["1 2; 3 4", "--entry", "2,1"], ["1 2; 3 4", "--entry", "2"]),
    "basis": (["1 2 3; 2 4 6"], ["1 2; 3"]),
    "span-member": (["1 1 1 1; 0 0 1 1", "1 1 2 2"], ["1 1; 0 1", "1 1; 2 2"]),
    "extend-basis": (["1 1 0"], ["1 1 0; 1"]),
    "subspace": (["a; -2a+b; -a"], ["a*b; a"]),
    "fundamentals": (["1 2 3; 2 4 6"], ["1 2 | 3"]),
    "transform": (["x1 + x2; 2x1"], ["1 2 -> 3 -> 4"]),
    "kernel": (["-5x1; 2x2+x3; -x1; 0"], ["x1^2; x2"]),
    "range": (["-5x1; 2x2+x3; -x1; 0"], ["1 2 -> 3; 4"]),
    "eigen": (["2 0 1; 0 1 -2; 0 0 -1"], ["1 2 3; 4 5 6"]),
    "diagonalize": (["0 -1; 1 0"], ["1 2 3"]),
    "power": (["1 1; 0 1", "--power", "5"], ["1 2 3", "--power", "2"]),
    "dot": (["2 4 1 3", "0 1 2 5"], ["1 2", "1 2 3"]),
    "gram-schmidt": (["1 0 1 1; 0 1 0 1"], ["1 0 1; 0 1"]),
    "decompose-sym": (["1 2; 3 4"], ["1 2 3"]),
    "transpose": (["1 2 3; 4 5 6"], ["1 2; 3 x"]),
    "mul": (["1 2; 3 4", "5; 6"], ["1 2; 3 4", "1 2 3"]),
}


def parser_verbs(verb=None) -> set[str]:
    (sub,) = [
        a for a in build_parser(verb)._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return set(sub.choices)


def test_contract_names_every_verb_of_the_parser():
    assert set(CONTRACT) == parser_verbs()


def test_every_verb_answers_with_exit_zero_and_rejects_malformed_input_with_two():
    for verb, (answer, malformed) in CONTRACT.items():
        for fmt in ([], ["--format", "json"]):
            code, out, err = run([verb, *answer, *fmt])
            assert (code, err) == (0, ""), verb
            assert out.endswith("\n"), verb
            code, out, err = run([verb, *malformed, *fmt])
            assert code == 2, verb
            assert out == "", verb
            assert err.startswith("error:") and "Traceback" not in err, verb


# ---- one subparser per run -----------------------------------------------------------


def test_a_verb_builds_only_its_own_subparser():
    for verb in CONTRACT:
        assert parser_verbs(verb) == {verb}
    assert parser_verbs("bogus") == set(CONTRACT)


# argvs whose first word names no verb: main builds every subparser for them
NO_VERB_FIRST = [
    [], ["--help"], ["-h"], ["bogus"], ["bogus", "1"], ["Det", "1"],
    ["--format", "json", "det", "1"], ["--", "det", "1"],
]


def test_main_answers_as_the_full_parser_does(monkeypatch):
    """Exit code, stdout and stderr of every verb's help, missing argument and
    unknown option, of every contract answer, and of argvs with no verb first,
    equal what the parser with every verb gives."""
    full = cli.build_parser
    argvs = list(NO_VERB_FIRST)
    for verb, (answer, _) in CONTRACT.items():
        argvs += [[verb, "--help"], [verb], [verb, "1", "--bogus"], [verb, *answer]]
    for argv in argvs:
        lean = run(argv)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "build_parser", lambda verb=None: full())
            assert run(argv) == lean, argv


# ---- round trips -------------------------------------------------------------------

scalars = st.fractions(max_denominator=50).filter(lambda q: abs(q.numerator) < 10**6)


@st.composite
def matrices(draw, rows=None, cols=None):
    rows = rows or draw(st.integers(1, 4))
    cols = cols or draw(st.integers(1, 4))
    grid = draw(
        st.lists(
            st.lists(scalars, min_size=cols, max_size=cols),
            min_size=rows,
            max_size=rows,
        )
    )
    return Matrix(grid)


def _text(m: Matrix) -> str:
    return render_inline(m)[1:-1]


def _json_matrix(verb, *texts) -> Matrix:
    # "--" keeps argparse from taking a lone "-1/2" for an option
    code, out, err = run([verb, "--format", "json", "--", *texts])
    assert (code, err) == (0, "")
    rows = json.loads(out)["matrix"]
    assert all(isinstance(s, str) for row in rows for s in row)
    return Matrix([[parse_scalar(s) for s in row] for row in rows])


@given(matrices())
def test_render_inline_round_trips_through_the_parser(m):
    assert parse_matrix_text(_text(m)) == (m, None)


@given(matrices())
def test_transpose_json_re_parses_exactly(m):
    assert _json_matrix("transpose", _text(m)) == m.transpose()


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.data())
def test_mul_json_re_parses_exactly(n, k, p, data):
    a = data.draw(matrices(n, k))
    b = data.draw(matrices(k, p))
    assert _json_matrix("mul", _text(a), _text(b)) == a @ b


# ---- junk input --------------------------------------------------------------------

# Each verb with its argument slots; "*" is filled with junk text.
JUNK_SHAPES = {
    "solve": ["*"],
    "rref": ["*", "--trace"],
    "reduce": ["*", "--form", "echelon"],
    "inverse": ["*"],
    "det": ["*", "--trace"],
    "cofactor": ["*"],
    "cramer": ["*"],
    "adjoint": ["*"],
    "inv-entry": ["*", "--entry", "1,1"],
    "basis": ["*"],
    "span-member": ["*", "*"],
    "extend-basis": ["*"],
    "subspace": ["*"],
    "fundamentals": ["*"],
    "transform": ["*", "--apply", "*"],
    "kernel": ["*"],
    "range": ["*"],
    "eigen": ["*"],
    "diagonalize": ["*"],
    "power": ["*", "--power", "3"],
    "dot": ["*", "*"],
    "gram-schmidt": ["*"],
    "decompose-sym": ["*"],
    "transpose": ["*"],
    "mul": ["*", "*"],
}

junk = st.text(alphabet="0123456789;|/.-+> xab", max_size=30).filter(lambda s: s != "-")


def test_junk_shapes_name_every_verb_of_the_parser():
    assert set(JUNK_SHAPES) == parser_verbs()


@settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(JUNK_SHAPES)), st.lists(junk, min_size=2, max_size=2),
       st.booleans())
def test_junk_text_ends_in_an_exit_code_never_a_traceback(verb, texts, as_json):
    fill = iter(texts)
    argv = [verb] + [next(fill) if a == "*" else a for a in JUNK_SHAPES[verb]]
    if as_json:
        argv += ["--format", "json"]
    code, out, err = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 0:
        assert out == ""
