"""Show that every answer check can fail.

For each workload this runs one pass with the true expectations (every
operation must pass) and one pass where each case's expected value is
deliberately wrong (every operation must count as failed).  Run from the
root of a checkout:

    python3 benchmark/bite.py

It exits non-zero if any check lets a wrong expectation through.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import run


def _bump(matrix):
    m = [list(row) for row in matrix]
    m[0][0] += 1
    return m


def corrupt(case):
    """A copy of ``case`` whose expectation no correct answer can meet."""
    bad = copy.deepcopy(case)
    e = bad.expect
    if "det" in e:
        e["det"] += 1
    elif "x" in e:
        e["x"][0] += 1
    elif "value" in e:
        e["value"] += 1
    elif "b" in e:
        e["b"][0] += 1
    elif "char" in e and case.op == "eigen_summary":
        e["char"][0] += 1
    elif case.op == "diagonalize" and e["deficient"]:
        lam, alg, geom = e["deficient"]
        e["deficient"] = (lam + 1, alg, geom)
    elif case.op == "diagonalize":
        (lam, m), *rest = e["roots"]
        e["roots"] = ((lam + 1, m), *rest)
    elif "power" in e:
        e["power"] = _bump(e["power"])
    elif "vectors" in e:
        e["vectors"] = _bump(e["vectors"])
    elif "A" in e:
        e["A"] = _bump(e["A"])
    else:
        raise ValueError(f"no way to corrupt {case.label}")
    return bad


def main() -> int:
    src = Path.cwd() / "src"
    if not (src / "qlinalg" / "__init__.py").is_file():
        print("error: run from the root of a qlinalg checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    ok = True
    for name, make in run.WORKLOADS.items():
        cases = make(1)
        for label, batch, want in (("true", cases, 0), ("wrong", [corrupt(c) for c in cases], len(cases))):
            if name == "cli-oneshot":
                out = run.run_cli(batch, src, 0, False)
            else:
                out = run.run_library(batch, 0, False)
            good = out["attempted"] == len(cases) and out["failed"] == want
            ok &= good
            print(f"{name:12s} {label:5s} expectations: {out['failed']:2d} of "
                  f"{out['attempted']:2d} failed (want {want}) {'ok' if good else 'MISSED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
