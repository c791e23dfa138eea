"""Per-layer timings and counts, taken by wrapping qlinalg's public functions.

Nothing under ``src/`` changes.  A function is replaced in every qlinalg
module that holds it (``from .elimination import reduce`` binds ``reduce``
in ``spaces``, ``determinant``, ``cli`` and the package itself), and a
method is replaced on its class.  Wrappers keep spans on a stack: a span's
time is its wall time, less the time of the nested spans named in
``EXCLUDE`` for it.  Only the traced run installs them.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# (module, attribute, span name, timed); a dotted attribute is a method.
POINTS = (
    ("qlinalg.matrix", "parse_matrix_text", "matrix.parse", True),
    ("qlinalg.matrix", "Matrix.__init__", "matrix.construct", False),
    ("qlinalg.matrix", "Matrix.__matmul__", "matrix.matmul", True),
    ("qlinalg.elimination", "reduce", "elimination.reduce", True),
    ("qlinalg.elimination", "elementary_matrix", "elimination.elementary_matrix", True),
    ("qlinalg.spaces", "Subspace.__post_init__", "spaces.subspace_validation", False),
    ("qlinalg.eigen", "char_poly", "eigen.char_poly", True),
    ("qlinalg.eigen", "eigenspace", "eigen.eigenspace", True),
    ("qlinalg.poly", "rational_roots", "poly.rational_roots", True),
    ("qlinalg.poly", "Polynomial.__call__", "poly.evaluation", False),
    ("qlinalg.matrix", "render_inline", "cli.render", True),
    ("qlinalg.matrix", "render_block", "cli.render", True),
    ("qlinalg.elimination", "render_row_op", "cli.render", True),
    ("qlinalg.cli", "build_parser", "cli.parser", True),
)

CLI_HANDLER_PREFIX = "_cmd_"

EXCLUDE = {
    "elimination.reduce": {"elimination.elementary_matrix"},
    "cli.handler": {"cli.render"},
}

# name, unit: the metrics a traced run reports, in BENCHMARK.json order.
METRICS = (
    ("matrix.parse_ms", "ms"),
    ("matrix.construct_calls", "count"),
    ("matrix.matmul_ms", "ms"),
    ("elimination.reduce_calls", "count"),
    ("elimination.reduce_ms", "ms"),
    ("elimination.elementary_matrix_calls", "count"),
    ("elimination.elementary_matrix_ms", "ms"),
    ("elimination.peak_entry_bits", "bits"),
    ("spaces.subspace_validations", "count"),
    ("eigen.char_poly_calls", "count"),
    ("eigen.char_poly_ms", "ms"),
    ("eigen.eigenspace_ms", "ms"),
    ("poly.rational_roots_ms", "ms"),
    ("poly.evaluations", "count"),
    ("cli.import_ms", "ms"),
    ("cli.parser_ms", "ms"),
    ("cli.handler_ms", "ms"),
    ("cli.render_ms", "ms"),
    ("cli.output_bytes", "bytes"),
)


def matrix_bits(m) -> int:
    return max(
        max(abs(x.numerator).bit_length(), x.denominator.bit_length())
        for row in m.entries
        for x in row
    )


class Tracer:
    """Spans and counts for one traced run; ``install`` and ``remove`` bracket it."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.ms: dict[str, float] = defaultdict(float)
        self.peak_bits = 0
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.ms.clear()
        self.peak_bits = 0

    def _wrap(self, name: str, fn, timed: bool, after=None):
        calls, ms, stack = self.calls, self.ms, self._stack

        if not timed:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return counted

        def spanned(*args, **kwargs):
            calls[name] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = time.perf_counter() - t0
                stack.pop()
                ms[name] += (d - frame[1]) * 1000
                for outer in reversed(stack):
                    if name in EXCLUDE.get(outer[0], ()):
                        outer[1] += d
                        break
            if after is not None:
                after(result)
            return result
        return spanned

    def _watch_bits(self, result) -> None:
        self.peak_bits = max(self.peak_bits, matrix_bits(result[0]))

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, only=None) -> None:
        """Wrap every point (or only the spans named in ``only``)."""
        modules = [m for n, m in sys.modules.items() if n == "qlinalg" or n.startswith("qlinalg.")]
        for module_name, attr, name, timed in POINTS:
            module = sys.modules.get(module_name)
            if module is None or (only is not None and name not in only):
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self._replace(cls, meth, self._wrap(name, getattr(cls, meth), timed))
                continue
            original = getattr(module, attr)
            after = self._watch_bits if name == "elimination.reduce" else None
            wrapped = self._wrap(name, original, timed, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._replace(m, key, wrapped)
        cli = sys.modules.get("qlinalg.cli")
        if cli is not None and only is None:
            for key, value in list(vars(cli).items()):
                if key.startswith(CLI_HANDLER_PREFIX) and callable(value):
                    self._replace(cli, key, self._wrap("cli.handler", value, True))
            self._replace(json, "dumps", self._wrap("cli.render", json.dumps, True))

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self, ops: int, parse_ms: float, cli: dict | None = None) -> dict:
        """Per-operation figures over ``ops`` operations (CLI: invocations)."""
        per = lambda name: self.ms[name] / ops  # noqa: E731
        cli = cli or {}
        values = {
            "matrix.parse_ms": parse_ms,
            "matrix.construct_calls": self.calls["matrix.construct"] / ops,
            "matrix.matmul_ms": per("matrix.matmul"),
            "elimination.reduce_calls": self.calls["elimination.reduce"] / ops,
            "elimination.reduce_ms": per("elimination.reduce"),
            "elimination.elementary_matrix_calls":
                self.calls["elimination.elementary_matrix"] / ops,
            "elimination.elementary_matrix_ms": per("elimination.elementary_matrix"),
            "elimination.peak_entry_bits": self.peak_bits,
            "spaces.subspace_validations": self.calls["spaces.subspace_validation"] / ops,
            "eigen.char_poly_calls": self.calls["eigen.char_poly"] / ops,
            "eigen.char_poly_ms": per("eigen.char_poly"),
            "eigen.eigenspace_ms": per("eigen.eigenspace"),
            "poly.rational_roots_ms": per("poly.rational_roots"),
            "poly.evaluations": self.calls["poly.evaluation"] / ops,
            "cli.import_ms": cli.get("import_ms", 0.0),
            "cli.parser_ms": per("cli.parser"),
            "cli.handler_ms": per("cli.handler"),
            "cli.render_ms": per("cli.render"),
            "cli.output_bytes": cli.get("output_bytes", 0),
        }
        return {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
