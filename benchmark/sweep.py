"""Reference sweep: how exact elimination and char_poly scale with n.

Not a workload and not gated.  It times ``det``, ``inverse_gauss_jordan``
and ``solve`` at n = 16, 32, 48 and ``char_poly`` at n = 6, 7, 8, on random
dense inputs in both entry regimes (integers in -9..9; p/q with |p| <= 9 and
q in {1, 2, 3}), one call per cell, and records ``peak_entry_bits`` next to
each time: the largest numerator or denominator bit length in any matrix
``reduce`` returned during the call (for ``char_poly``, in the polynomial's
coefficients).  Run from the root of a checkout; it takes a few minutes:

    python3 benchmark/sweep.py
"""

from __future__ import annotations

import importlib
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import layers

ELIMINATION_SIZES = (16, 32, 48)
CHAR_POLY_SIZES = (6, 7, 8)
SEED = 0


def _entry(rng, regime):
    p = rng.randint(-9, 9)
    return Fraction(p) if regime == "int" else Fraction(p, rng.choice((1, 2, 3)))


def _matrix_text(rng, n, cols, regime):
    return "; ".join(" ".join(str(_entry(rng, regime)) for _ in range(cols)) for _ in range(n))


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "qlinalg" / "__init__.py").is_file():
        print("error: run from the root of a qlinalg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    ql = importlib.import_module("qlinalg")
    tracer = layers.Tracer()
    tracer.install(only={"elimination.reduce"})

    print("| op | regime | n | time (s) | peak_entry_bits |")
    print("|---|---|---|---|---|")
    rng = random.Random(f"sweep/{SEED}")
    cells = [(op, n) for n in ELIMINATION_SIZES for op in ("det", "inverse_gauss_jordan", "solve")]
    cells += [("char_poly", n) for n in CHAR_POLY_SIZES]
    for op, n in cells:
        for regime in ("int", "pq"):
            cols = n + 1 if op == "solve" else n
            m, bar = ql.parse_matrix_text(_matrix_text(rng, n, cols, regime))
            call_args = ql.split_augmented(m, n) if op == "solve" else (m,)
            tracer.reset()
            t0 = time.perf_counter()
            result = getattr(ql, op)(*call_args)
            took = time.perf_counter() - t0
            bits = tracer.peak_bits
            if op == "char_poly":
                bits = max(max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                           for c in result.coefficients)
            print(f"| `{op}` | {regime} | {n} | {took:.3f} | {bits} |", flush=True)
    tracer.remove()
    return 0


if __name__ == "__main__":
    sys.exit(main())
