"""circuitforge benchmark: one workload per run, single-threaded, in-process.

    python3 perfbench/run.py --workload lift --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

A run imports the library from `src/` next to this directory, builds the
workload's seeded inputs (set-up, timed several times, median reported),
then runs whole rounds of the workload's fixed operation set until the
time is used, but at least MIN_OPS operations. Every operation is timed on
its own; its output is checked afterwards by the independent checker.
Times are host-normalised (see `HostClock`): on a shared host the
interpreter's speed swings by up to 2x, and a short fixed reference loop,
sampled every 10 ms during the run, measures that swing.
The last line printed is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with `--trace 0`, the
per-layer metrics of a traced run with `--trace 1` (spans are written to
`.perfbench_out/` under the repository root).
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPS = 7          # set-up is repeated and its median reported
MIN_OPS = 100           # so ten latencies lie beyond the 90th percentile;
                        # a workload's `min_ops` can ask for more
MAX_SECONDS = 150       # no new round starts once a run could pass this
SMOKE_SEEDS = (0, 1)

REF_PRIME = (1 << 62) - 57
REF_PERIOD_S = 0.01       # one sample per 10 ms of wall time, operations included
REF_MIN_SAMPLES = 3       # an interval holding fewer is rated by the nearest ones


def interpreter_loop():
    """400 rounds of 62-bit modular products and dict stores: the kind of
    interpreter-bound work most of the library does."""
    x, table = 12345678901, {}
    for k in range(400):
        x = x * 6364136223846793005 % REF_PRIME
        table[x & 1023] = k


_NP_A = _NP_B = None


def numpy_loop():
    """Modular products and sums on 2048-entry int64 arrays: the kind of
    work the vectorized grid scans of `pit` do."""
    global _NP_A, _NP_B
    import numpy as np

    if _NP_A is None:
        _NP_A = np.arange(1, 2049, dtype=np.int64)
        _NP_B = _NP_A * 7919 % 1_000_003
    acc = _NP_A
    for _ in range(6):
        acc = acc * _NP_B % 1_000_003
        acc = (acc + _NP_A) % 1_000_003


# name: (loop, its time on the reference machine with the host at full speed)
REFERENCES = {
    "interpreter": (interpreter_loop, 108e-6),
    "numpy": (numpy_loop, 112e-6),
}


class HostClock:
    """Host-normalised time.

    On a shared host the interpreter's speed swings by up to 2x within
    fractions of a second, so one operation's wall time says as much about
    the neighbours as about the program. While the clock runs, a timer
    signal interrupts the process every REF_PERIOD_S and times the clock's
    reference loop (one of REFERENCES; they live in this file, so no change
    to the library touches them). `interval` gives an interval's wall time
    less the time spent in those samples, scaled by the loop's full-speed
    time over the median of the samples taken inside the interval: the
    time the interval would have taken with the host at full speed. A
    slower program still reads slower, since the loop does not change with
    it.
    """

    def __init__(self, reference):
        self.reference = reference
        self.loop, self.full_speed_s = REFERENCES[reference]
        self.mids, self.took = [], []  # middle and duration of each sample
        self.paused = 0.0              # total time spent sampling

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.loop()
        t1 = time.perf_counter()
        self.mids.append((t0 + t1) / 2)
        self.took.append(t1 - t0)
        self.paused += time.perf_counter() - t0

    def __enter__(self):
        self.loop()  # warm up (numpy's arrays) before the first sample
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """A point in time, for `interval`."""
        return self.paused, time.perf_counter()

    def interval(self, start, end, normalise=True):
        """Seconds between two marks, less sampling; host-normalised when
        `normalise`. Call it once the clock has stopped."""
        (p0, t0), (p1, t1) = start, end
        wall = (t1 - t0) - (p1 - p0)
        if not normalise:
            return wall
        i, j = bisect.bisect_left(self.mids, t0), bisect.bisect_right(self.mids, t1)
        while j - i < REF_MIN_SAMPLES and (i > 0 or j < len(self.mids)):
            i, j = max(0, i - 1), min(len(self.mids), j + 1)
        return wall * self.full_speed_s / statistics.median(self.took[i:j])


def import_fresh():
    """Import circuitforge from scratch (drops any earlier import)."""
    for name in [m for m in sys.modules if m == "circuitforge" or m.startswith("circuitforge.")]:
        del sys.modules[name]
    return importlib.import_module("circuitforge")


def set_up(workload_cls, seed, clock, tracer=None):
    """Run SETUP_REPS set-ups (import + inputs); keep the last. Returns it
    with the marks of every set-up. With a tracer the last set-up runs
    instrumented."""
    spans = []
    for rep in range(SETUP_REPS):
        start = clock.mark()
        cf = import_fresh()
        if tracer is not None and rep == SETUP_REPS - 1:
            tracer.instrument(cf)
        workload = workload_cls(cf, seed)
        spans.append((start, clock.mark()))
    return cf, workload, spans


def round_order(workload):
    """One round's operations in a fixed shuffled order, the same in every
    round and for every seed. The workloads list their operations grouped
    (by field, degree or pair); shuffled, a stretch of slow host time lands
    on a mix of operations instead of on one group."""
    ops = workload.round_ops()
    random.Random(f"order/{workload.name}").shuffle(ops)
    return ops


def run_rounds(workload, forge_error, seconds, clock):
    """Run whole rounds; returns the per-run tallies."""
    from workloads import CheckFailed

    spans, wires_per_round = [], []  # spans: (start mark, end mark, completed)
    attempted = failed = wrong = 0
    min_ops = getattr(workload, "min_ops", MIN_OPS)
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        wires = 0
        for op in round_order(workload):
            attempted += 1
            t0 = clock.mark()
            try:
                res = op.call()
            except forge_error as exc:
                spans.append((t0, clock.mark(), False))
                failed += 1
                print(f"failed {op.kind}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            except Exception:  # a crash is a failed operation too; keep going
                spans.append((t0, clock.mark(), False))
                failed += 1
                traceback.print_exc()
                continue
            t1 = clock.mark()
            try:
                op.check(res)
            except CheckFailed as exc:
                spans.append((t0, t1, False))
                failed += 1
                wrong += 1
                print(f"check failed {op.kind}: {exc}", file=sys.stderr)
                continue
            spans.append((t0, t1, True))
            if op.out_wires is not None:
                wires += op.out_wires(res)
        wires_per_round.append(wires)
        now = time.perf_counter()
        elapsed, last = now - start, now - round_start
        if elapsed + last > MAX_SECONDS:
            break
        if attempted >= min_ops and elapsed + last > seconds:
            break
    return {
        "spans": spans,
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "rounds": len(wires_per_round),
        "wires_per_round": wires_per_round,
    }


def op_times(tally, clock, normalise=True):
    """(latencies of completed operations, time of all operations), in
    seconds, host-normalised when `normalise`."""
    lat, busy = [], 0.0
    for t0, t1, completed in tally["spans"]:
        dt = clock.interval(t0, t1, normalise)
        busy += dt
        if completed:
            lat.append(dt)
    return lat, busy


def timing_metrics(lat, busy):
    deciles = statistics.quantiles(lat, n=10) if len(lat) >= 2 else [lat[0] if lat else 0.0] * 9
    return {
        "ops_per_s": (len(lat) / busy if busy else 0.0, "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3 if lat else 0.0, "ms"),
        "op_p90_ms": (deciles[8] * 1e3, "ms"),
    }


def end_to_end_metrics(tally, setup_s, workload, clock):
    wires = tally["wires_per_round"][0]
    if hasattr(workload, "input_wires"):
        wires = workload.input_wires()
    return {
        "setup_s": (setup_s, "s"),
        **timing_metrics(*op_times(tally, clock)),
        "out_wires": (wires, "wires"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def report_wall_clock(tally, clock):
    """The run's plain wall-clock figures and host speed, on stderr."""
    raw = timing_metrics(*op_times(tally, clock, False))
    print("wall clock: " + ", ".join(f"{k} {v:.4g}" for k, (v, _) in raw.items())
          + f"; {clock.reference} loop: {len(clock.took)} samples, median "
          f"{statistics.median(clock.took) * 1e6:.1f} us (full speed {clock.full_speed_s * 1e6:.0f} us)",
          file=sys.stderr)


def find_library():
    """Put the library and this directory on the import path; False when
    the sources are missing."""
    if not (SRC / "circuitforge" / "__init__.py").is_file():
        print(f"circuitforge sources not found under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    return True


def run(args):
    if not find_library():
        return 2
    # the library's dependencies: numpy is used by pit, sympy by rational
    # root finding, both imported lazily on first use; import them once
    # here so no timed operation pays for it
    import numpy  # noqa: F401
    import sympy  # noqa: F401

    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    tracer = Tracer() if args.trace else None
    # set-up is interpreter-bound in every workload
    with HostClock("interpreter") as setup_clock:
        cf, workload, setup_spans = set_up(WORKLOADS[args.workload], args.seed, setup_clock, tracer)
    setup_s = statistics.median(setup_clock.interval(t0, t1) for t0, t1 in setup_spans)
    setup_snap = tracer.snapshot() if tracer else None
    with HostClock(workload.reference) as clock:
        tally = run_rounds(workload, cf.errors.ForgeError, args.seconds, clock)
    end_snap = tracer.snapshot() if tracer else None
    consistent = len(set(tally["wires_per_round"])) == 1
    report_wall_clock(tally, clock)
    if tracer is None:
        metrics = end_to_end_metrics(tally, setup_s, workload, clock)
    else:
        values = layer_metrics(setup_snap, end_snap, tally["rounds"])
        lat, busy = op_times(tally, clock)
        values["trace.ops_per_s"] = len(lat) / busy if busy else 0.0
        units = layer_units()
        metrics = {k: (values[k], units[k]) for k in units}
        tracer.write(ROOT / ".perfbench_out" / f"trace-{args.workload}-seed{args.seed}.jsonl")
    result = {
        "correct": tally["wrong"] == 0 and consistent,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def smoke():
    """Every workload on a handful of instances, all checks, two seeds."""
    if not find_library():
        return 2
    from workloads import WORKLOADS, CheckFailed

    bad = 0
    for seed in SMOKE_SEEDS:
        for name, cls in WORKLOADS.items():
            cf = import_fresh()
            t0 = time.perf_counter()
            ops = cls(cf, seed, smoke=True).round_ops()
            problems = 0
            for op in ops:
                try:
                    op.check(op.call())
                except (cf.errors.ForgeError, CheckFailed) as exc:
                    problems += 1
                    print(f"  {name} seed {seed} {op.kind}: {type(exc).__name__}: {exc}")
            bad += problems
            print(f"smoke {name:7s} seed {seed}: {len(ops) - problems}/{len(ops)} ops pass "
                  f"in {time.perf_counter() - t0:.1f}s")
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=("lift", "factor", "pit", "vnp"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=4)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="quick check of every workload")
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke()
    if args.workload is None:
        ap.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
