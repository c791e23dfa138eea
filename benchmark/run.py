"""qlinalg benchmark: closed-loop workloads with checked answers.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload dense-elim --seed 1 --seconds 30 --trace 0

It runs the checkout's own ``src/`` (and ``python -m qlinalg`` for the CLI),
never an installed copy.  Each workload runs in one process on one thread
with one caller; the CLI workload runs one child process at a time.  Inputs
come from ``--seed`` and every answer is checked against its construction
(``inputs.py``, ``checks.py``).  The run repeats whole passes over the input
list until ``--seconds`` have gone by and at least ``MIN_OPERATIONS`` are
done, so the mix of operations is the same in every run.  Each operation's wall time is scaled by the host's speed at
that moment (``host_calibration``), and set-up is repeated after every pass.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end with ``--trace 0``, per-layer with
``--trace 1``; see README.md).
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, redirect_stdout
from pathlib import Path

import checks
import inputs
import layers

# An operation still running after this long counts as failed.
OP_TIMEOUT_S = 20
# ``host_calibration`` takes about this long on a calm host; scaled times are
# wall times on a host where it takes exactly this long (see ``Timings``).
REFERENCE_S = 0.001
CALIBRATION_STEPS = 6000
# A run goes on past ``--seconds`` until it has this many operations, so
# that ten of them lie beyond the 90th percentile.
MIN_OPERATIONS = 100


class OperationTimeout(Exception):
    pass


def _step(a: int, b: int) -> int:
    return (a * b + 12345) % 1000003


def host_calibration() -> float:
    """Wall time of a fixed pure-Python loop.

    The host's speed drifts by a third within minutes, and process CPU time
    drifts with it.  Run just before and just after each operation, this
    loop measures the speed that operation met.  It allocates no object the
    cyclic GC tracks, so it neither triggers nor absorbs collections of the
    program's garbage.
    """
    t0 = time.perf_counter()
    x = 1
    for i in range(1, CALIBRATION_STEPS):
        x = _step(x, i)
    return time.perf_counter() - t0


class Timings:
    """Wall times of timed spans, each also scaled to the reference host:
    wall time x REFERENCE_S / the mean of the calibrations around it."""

    def __init__(self):
        self.wall: list[float] = []
        self.calibrations: list[float] = []
        self.scaled: list[float] = []

    @contextmanager
    def span(self):
        before = host_calibration()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            took = time.perf_counter() - t0
            calibration = (before + host_calibration()) / 2
            self.wall.append(took)
            self.calibrations.append(calibration)
            self.scaled.append(took * REFERENCE_S / calibration)

    def report_wall(self) -> None:
        """The unscaled figures, on stderr."""
        wall = self.wall
        print(f"wall time: ops_per_s {len(wall) / sum(wall):.4f} "
              f"latency_p50_ms {statistics.median(wall) * 1000:.4f} "
              f"latency_p90_ms {statistics.quantiles(wall, n=10)[8] * 1000:.4f} "
              f"calibration_ms {statistics.median(self.calibrations) * 1000:.4f}",
              file=sys.stderr)


def _on_alarm(signum, frame):
    raise OperationTimeout(f"still running after {OP_TIMEOUT_S} s")


def _limited(fn, *args):
    """``fn(*args)``, raising OperationTimeout after OP_TIMEOUT_S seconds."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _finished(start: float, seconds: float, attempted: int) -> bool:
    """Has the run had its time and its operations?  ``seconds == 0`` asks
    for a single pass."""
    enough = attempted >= MIN_OPERATIONS or seconds == 0
    return enough and time.perf_counter() - start >= seconds


def _end_to_end(latencies, setups, rss_kb) -> dict:
    """The end-to-end metrics from scaled operation and set-up times."""
    metrics = {
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1000, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


# ---- library workloads -----------------------------------------------------------


def _prepare(ql, case):
    """Everything parse_matrix_text and the bar give, ready for the call."""
    m, bar = ql.parse_matrix_text(case.text)
    if bar is not None:
        return ql.split_augmented(m, bar)
    return (m,)


def _call(ql, case, args):
    return getattr(ql, case.op)(*args, *case.args)


def _setup_library(cases):
    """Import qlinalg, parse every input, run one call of each kind; return
    the module, the parsed arguments and the scaled time it took.  A warm-up
    call that fails is left for the timed loop to count."""
    timings = Timings()
    with timings.span():
        ql = importlib.import_module("qlinalg")
        prepared = {case.text: _prepare(ql, case) for case in cases}
        seen = set()
        for case in cases:
            if case.op not in seen:
                seen.add(case.op)
                try:
                    _limited(_call, ql, case, prepared[case.text])
                except Exception:
                    pass
    return ql, prepared, timings.scaled[0]


def _setup_in_child(workload: str, seed: int) -> float:
    """One more set-up round, in a fresh interpreter as a user would meet it
    (importing qlinalg again in this process would leak the old modules)."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--setup-round"],
        capture_output=True, text=True, timeout=OP_TIMEOUT_S * 4, check=True,
    )
    return float(proc.stdout)


def run_library(cases, seconds: float, trace: bool, setup_round=None) -> dict:
    """The timed loop.  ``setup_round``, if given, is called after every pass
    but the last and returns one more scaled set-up time."""
    ql, prepared, took = _setup_library(cases)
    setups = [took]

    tracer = None
    parse_ms = 0.0
    if trace:
        tracer = layers.Tracer()
        tracer.install()
        texts = list(dict.fromkeys(case.text for case in cases))
        for text in texts:
            ql.parse_matrix_text(text)
        parse_ms = tracer.ms["matrix.parse"] / len(texts)
        tracer.reset()

    timings = Timings()
    failed, wrong, reported = 0, 0, set()
    start = time.perf_counter()
    while True:
        for case in cases:
            args = prepared[case.text]
            try:
                with timings.span():
                    result = _limited(_call, ql, case, args)
            except Exception:  # an operation that raises or hangs is a failed operation
                failed += 1
                if case.label not in reported:
                    reported.add(case.label)
                    traceback.print_exc()
                continue
            if not checks.check_library(case, result):
                failed += 1
                wrong += 1
                if case.label not in reported:
                    reported.add(case.label)
                    print(f"wrong answer: {case.label}", file=sys.stderr)
            del result
        if _finished(start, seconds, len(timings.wall)):
            break
        if tracer is None and setup_round is not None:
            setups.append(setup_round())

    timings.report_wall()
    attempted = len(timings.wall)
    if tracer is not None:
        tracer.remove()
        print(f"traced: ops_per_s {attempted / sum(timings.scaled):.4f} (scaled), "
              f"mean operation {sum(timings.wall) / attempted * 1000:.4f} ms (wall)",
              file=sys.stderr)
        metrics = tracer.metrics(attempted, parse_ms)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = _end_to_end(timings.scaled, setups, rss)
    return {"wrong": wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


# ---- cli-oneshot ---------------------------------------------------------------------


def _child_env(src: Path) -> dict:
    env = dict(os.environ)
    # Every run writes and reads qlinalg's bytecode cache the way an
    # installed copy would, whatever the calling shell asks for.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    env["PYTHONPATH"] = str(src)
    return env


def _qlinalg_argv(case) -> list[str]:
    return [case.op, case.text, *case.args]


def _invoke(case, env):
    """Run one ``qlinalg`` process; return its exit code and output.  A
    process still running after OP_TIMEOUT_S is killed, waited for, and
    reported with exit code None."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "qlinalg", *_qlinalg_argv(case)],
            env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {OP_TIMEOUT_S} s"
    return proc.returncode, proc.stdout, proc.stderr


def _import_ms(env) -> float:
    """Cumulative ``qlinalg.cli`` import time from ``python -X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import qlinalg.cli"],
        env=env, capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True,
    )
    best = None
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() == "qlinalg.cli":
            depth = len(parts[2]) - len(parts[2].lstrip())
            if best is None or depth < best[0]:
                best = (depth, int(parts[1]) / 1000)
    if best is None:
        raise RuntimeError("python -X importtime did not report qlinalg.cli")
    return best[1]


def _setup_cli(cases, src: Path, env) -> float:
    """Delete the bytecode cache and run the two warm-up invocations, the
    first of which compiles the package; return their scaled time.  A
    warm-up that fails is left for the timed loop to count."""
    shutil.rmtree(src / "qlinalg" / "__pycache__", ignore_errors=True)
    timings = Timings()
    with timings.span():
        for case in cases[:2]:
            _invoke(case, env)
    return timings.scaled[0]


def run_cli(cases, src: Path, seconds: float, trace: bool) -> dict:
    env = _child_env(src)
    setups = [_setup_cli(cases, src, env)]
    if trace:
        return _run_cli_traced(cases, env, seconds)

    timings = Timings()
    failed, wrong, reported = 0, 0, set()
    start = time.perf_counter()
    while True:
        for case in cases:
            with timings.span():
                code, stdout, stderr = _invoke(case, env)
            ok = code == 0 and checks.check_cli(case, stdout)
            failed += not ok
            wrong += code == 0 and not ok
            if not ok and case.label not in reported:
                reported.add(case.label)
                print(f"failed: {case.label} (exit {code}) {stderr}", file=sys.stderr)
        if _finished(start, seconds, len(timings.wall)):
            break
        setups.append(_setup_cli(cases, src, env))
    timings.report_wall()
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "wrong": wrong,
        "attempted": len(timings.wall),
        "failed": failed,
        "metrics": _end_to_end(timings.scaled, setups, rss),
    }


def _run_cli_traced(cases, env, seconds: float) -> dict:
    """``qlinalg.cli.main(argv)`` in process, under the layer wrappers."""
    cli = importlib.import_module("qlinalg.cli")
    tracer = layers.Tracer()
    tracer.install()
    import_ms, out_bytes, attempted, failed, wrong = [], 0, 0, 0, 0
    start = time.perf_counter()
    try:
        while True:
            import_ms.append(_import_ms(env))
            for case in cases:
                buf = io.StringIO()
                with redirect_stdout(buf):
                    try:
                        code = _limited(cli.main, _qlinalg_argv(case))
                    except Exception:  # counted as failed below
                        code = None
                        traceback.print_exc()
                out = buf.getvalue()
                out_bytes += len(out.encode())
                attempted += 1
                ok = code == 0 and checks.check_cli(case, out)
                failed += not ok
                wrong += code == 0 and not ok
            if _finished(start, seconds, attempted):
                break
    finally:
        tracer.remove()
    parse_ms = tracer.ms["matrix.parse"] / tracer.calls["matrix.parse"]
    extra = {"import_ms": statistics.median(import_ms), "output_bytes": out_bytes / attempted}
    return {
        "wrong": wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": tracer.metrics(attempted, parse_ms, extra),
    }


# ---- entry point ---------------------------------------------------------------------

WORKLOADS = {
    "dense-elim": inputs.dense_cases,
    "eigen-small": inputs.eigen_cases,
    "cli-oneshot": inputs.cli_cases,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-round", action="store_true",
                        help="print one scaled library set-up time and exit")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "qlinalg" / "__init__.py").is_file():
        print("error: run from the root of a qlinalg checkout (no src/qlinalg here)",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(src))

    cases = WORKLOADS[args.workload](args.seed)
    if args.setup_round:
        print(_setup_library(cases)[2])
        return 0
    if args.workload == "cli-oneshot":
        out = run_cli(cases, src, args.seconds, bool(args.trace))
    else:
        out = run_library(cases, args.seconds, bool(args.trace),
                          lambda: _setup_in_child(args.workload, args.seed))
    # A wrong answer counts as failed and makes the run incorrect; an
    # operation that raises or exits non-zero is failed but not wrong.
    wrong = out.pop("wrong")
    print(json.dumps({"correct": wrong == 0, **out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
