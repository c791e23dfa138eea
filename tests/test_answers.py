"""Committed answer corpus: every public algorithm, regime by regime.

The corpus and its generator live in ``answer_corpus``, which needs only the
standard library; see its docstring for the file's format and how to
rewrite it after an intended change of answers.
"""

import pytest

from answer_corpus import KEYS, answer_line, recorded


def test_the_corpus_has_one_line_per_function_and_regime():
    assert list(recorded()) == KEYS


@pytest.mark.parametrize("name, regime", KEYS)
def test_answers_match_the_corpus(name, regime):
    assert answer_line(name, regime) == recorded().get((name, regime)), (
        f"the answers of {name} on {regime} inputs changed"
    )
