"""Benchmark of the morseflow command line, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --describe

Run from the root of a source checkout: the package is imported from
``src/`` there and nowhere else.  One client drives ``morseflow.cli.main``
in process, in a closed loop: each op starts when the previous one returns,
and its JSON answer is checked against an oracle known independently of the
package (see ``oracles.py``).  The inputs are generated from the seed and
written as JSON files under ``.bench_work/``, which is removed at the end.

With ``--trace 0`` the op list is run in whole passes for about S seconds and
the end-to-end metrics are printed.  With ``--trace 1`` one untraced pass is
followed by one pass with per-layer spans (``tracer.py``); the per-layer
metrics are printed and the spans are written to ``.bench_out/``.  The last
line of output is one JSON object with the keys correct, attempted, failed
and metrics.

Times are reported in nominal seconds.  On a shared host the speed of a
core drifts by up to a factor of two within seconds, which swamps the
differences the benchmark exists to show.  So while a run is timed, a timer
signal interrupts it every ``SAMPLE_INTERVAL_S`` and times a fixed loop of
exact-fraction and dict work, the package's staple operations (``Clock``).
Each timed call is reported as its raw time, less the time spent in those
samples, scaled by ``PROBE_NOMINAL_S`` over the mean sample time during the
call: the time the call would have taken at the speed where the loop takes
``PROBE_NOMINAL_S``.  Raw wall times are printed above the result line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SAMPLE_INTERVAL_S = 0.05
PROBE_NOMINAL_S = 0.0009  # the sample loop's time on an idle core of the host the bounds were set on

sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "op_s_p50": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


class Clock:
    """Times calls in nominal seconds by sampling the core's speed while they run.

    Use as a context manager: it owns the SIGALRM handler and interval timer
    while open.  The samples that count for a call are those taken during it
    plus the last one before it and one taken right after it.
    """

    def __init__(self):
        self.samples = []
        self.sampling_s = 0.0  # total time spent in samples

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_):
        start = time.perf_counter()
        acc = Fraction(0)
        for i in range(1, 300):
            acc += Fraction(i % 7, i % 5 + 1)
        table = {}
        for i in range(2000):
            table[i & 255] = (i * 7919 % 10007, i)
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.sampling_s += elapsed

    def time(self, fn, *args):
        """(nominal seconds, raw seconds, result) of fn(*args)."""
        first, sampling = len(self.samples) - 1, self.sampling_s
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start - (self.sampling_s - sampling)
        self._sample()
        window = self.samples[first:]
        return raw * PROBE_NOMINAL_S * len(window) / sum(window), raw, result


def fresh_import():
    """Import morseflow from this checkout's sources, dropping any earlier import."""
    if not (SRC / "morseflow" / "cli.py").is_file():
        raise SystemExit(f"error: no morseflow sources in {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "morseflow" or n.startswith("morseflow.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    mf = importlib.import_module("morseflow")
    importlib.import_module("morseflow.cli")
    if Path(mf.__file__).resolve().parent != SRC / "morseflow":
        raise SystemExit(f"error: morseflow was imported from {mf.__file__}, not from {SRC}")
    return mf


def write_inputs(inputs, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for stem, doc in inputs.files.items():
        path = workdir / f"{stem}.json"
        path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
        paths[stem] = str(path)
    return paths


def resolve_ops(inputs, paths: dict) -> list:
    """The ops with ``{stem}`` arguments replaced by input file paths."""
    return [
        workloads.Op(op.label, tuple(a.format_map(paths) for a in op.argv), op.expect, op.known_failure)
        for op in inputs.ops
    ]


def check_matchings(mf, paths, inputs):
    for cx_stem, m_stem in inputs.matchings:
        cx = mf.Complex.from_json(Path(paths[cx_stem]).read_text(encoding="utf-8"))
        m = mf.Matching.from_json(Path(paths[m_stem]).read_text(encoding="utf-8"))
        report = mf.check_acyclic(cx, m)
        if not report.ok:
            raise SystemExit(f"error: generated matching {m_stem} is not acyclic: {report}")


def setup(workload: str, seed: int, workdir: Path, clock: Clock):
    """Import, generate and write the inputs SETUP_REPEATS times.

    Returns the ops and the nominal set-up times; the generated matchings
    are checked for acyclicity once, outside the timed set-ups.
    """

    def once():
        mf = fresh_import()
        inputs = workloads.build(workload, seed, mf)
        return mf, inputs, write_inputs(inputs, workdir)

    times = []
    for _ in range(SETUP_REPEATS):
        nominal, _, (mf, inputs, paths) = clock.time(once)
        times.append(nominal)
    check_matchings(mf, paths, inputs)
    return resolve_ops(inputs, paths), times


class Tally:
    """Outcome of every op attempted in a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # failures of ops not known to fail, and wrong answers
        self.latencies = {}  # op label -> list of seconds
        self.failures = {}  # op label -> last error

    def record(self, op, seconds, output, error):
        self.attempted += 1
        self.latencies.setdefault(op.label, []).append(seconds)
        if error is None:
            try:
                mismatches = oracles.check(op.expect, json.loads(output))
            except ValueError as exc:
                mismatches = [f"output is not JSON ({exc})"]
            if not mismatches:
                return
            error = "wrong answer: " + "; ".join(mismatches)
            self.unexpected.append(f"{op.label}: {error}")
        elif not op.known_failure:
            self.unexpected.append(f"{op.label}: {error}")
        self.failed += 1
        self.failures[op.label] = error[:200]

    @property
    def correct(self) -> bool:
        return not self.unexpected


def run_op(cli, argv):
    """Run one command in process; return (stdout, error or None)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except (Exception, SystemExit) as exc:  # RecursionError is an Exception
        return out.getvalue(), f"{type(exc).__name__}: {exc}"
    return out.getvalue(), None if rc == 0 else f"exit {rc}: {err.getvalue().strip()}"


def run_pass(ops, tally, clock, tracer=None):
    """One closed-loop pass over the ops; returns (nominal, raw) latencies."""
    cli = sys.modules["morseflow.cli"]
    nominal, raw = [], []
    for i, op in enumerate(ops):
        gc.collect()  # every op starts from the same heap state, as in a fresh process
        if tracer is not None:
            tracer.op = i
        seconds, raw_seconds, (output, error) = clock.time(run_op, cli, op.argv)
        nominal.append(seconds)
        raw.append(raw_seconds)
        tally.record(op, raw_seconds, output, error)
    return nominal, raw


def measure(ops, seconds, tally, clock):
    """Whole passes while the next one is expected to end within the budget."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, tally, clock))
        elapsed = time.perf_counter() - start
        if elapsed + sum(passes[-1][1]) > seconds:
            return passes


def traced_run(ops, tally, clock, spans_path: Path):
    """An untraced pass, then a traced one; per-layer metrics in nominal seconds."""
    untraced, _ = run_pass(ops, tally, clock)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, traced_raw = run_pass(ops, tally, clock, tracer)
    finally:
        tracer.uninstall()
    factor = sum(traced) / sum(traced_raw)
    metrics = {
        name: value * factor if tracing.PER_LAYER[name][0] == "s" else value
        for name, value in tracer.metrics().items()
    }
    metrics["trace.overhead_ratio"] = sum(traced) / sum(untraced)
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    keys = ("layer", "name", "parent", "start", "end", "op", "error")
    with spans_path.open("w", encoding="utf-8") as fh:
        for i, s in enumerate(tracer.spans):
            fh.write(json.dumps(dict(zip(keys, s), id=i)) + "\n")
    return metrics, sum(untraced), sum(traced)


def describe() -> dict:
    mf = fresh_import()
    return {
        "workloads": {
            name: {"why": w.why, "ops": [" ".join(op.argv) for op in workloads.build(name, 0, mf).ops]}
            for name, w in workloads.WORKLOADS.items()
        },
        "per_layer": {
            name: {"unit": unit, "should_move": moves}
            for name, (unit, moves) in tracing.PER_LAYER.items()
        },
    }


def collect(args, workdir: Path, tally: Tally, clock: Clock) -> dict:
    """Set up, run the workload and return its metrics as {name: {value, unit}}."""
    ops, setup_times = setup(args.workload, args.seed, workdir, clock)
    if args.trace:
        spans_path = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        values, untraced, traced = traced_run(ops, tally, clock, spans_path)
        print(f"untraced pass {untraced:.3f} s, traced pass {traced:.3f} s (nominal); spans in {spans_path}")
        return {name: {"value": values[name], "unit": unit} for name, (unit, _) in tracing.PER_LAYER.items()}
    passes = measure(ops, args.seconds, tally, clock)
    values = {
        "wall_s": statistics.median(sum(nominal) for nominal, _ in passes),
        "op_s_p50": statistics.median(statistics.median(t) for t in zip(*(nominal for nominal, _ in passes))),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw_wall = statistics.median(sum(raw) for _, raw in passes)
    print(f"{len(passes)} passes of {len(ops)} ops; op_s_p50 is the median of the {len(ops)} per-op medians; "
          f"raw wall {raw_wall:.4f} s; {len(clock.samples)} speed samples")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--describe", action="store_true", help="print workloads, ops and metric plan")
    args = parser.parse_args(argv)
    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tally = Tally()
    try:
        with Clock() as clock:
            metrics = collect(args, workdir, tally, clock)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    for label, times in tally.latencies.items():
        print(f"  raw {statistics.median(times):9.4f} s  x{len(times)}  {label}")
    for label, error in tally.failures.items():
        print(f"FAILED {label}: {error}")
    for line in tally.unexpected:
        print(f"UNEXPECTED {line}")
    print(f"fail_ratio {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
