"""Benchmark for adasub: one workload per process, closed loop, checked outputs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: semi-cover, exact-cover, certify-tabular, cli (see README.md).

--trace 0 times the workload untraced: whole rounds of operations run, one
at a time, until S seconds have passed (and at least three rounds), with the
set-up repeated before each round.  setup_s is the median of the set-up
runs, ops_per_s the operations timed over the time they took, and op_p50_ms
the median operation time.  Set-up times, and the operation times of the
interpreter-bound workloads, are scaled to a reference speed by a
calibration loop run just before each (see Clock); the raw wall times are
kept in the result file.  The last stdout line is a JSON object with
`correct`, `attempted`, `failed` and the end-to-end metrics.

--trace 1 runs a fixed number of rounds untraced, then the same rounds with
every layer span recorded, and reports calls and self time per span, the two
unique-state ratios and the tracing overhead.  Spans are written to
bench/out/ when the run ends.

The library is imported from src/ next to this directory; the command exits
with code 2 and prints no result when it is missing.  BLAS/OpenMP threads are
pinned to 1 before numpy loads.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
MIN_ROUNDS = 3


def _import_library():
    """Import adasub from this checkout's src/, or return None."""
    if not (SRC / "adasub" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import adasub
    except ImportError:
        return None
    if Path(adasub.__file__).resolve().parent != SRC / "adasub":
        return None
    return adasub


# Time of the calibration loop at the reference speed.  Scaled times read as
# wall times on a host where the loop takes this long.
CALIBRATION_REF_S = 0.6e-3


def _calibration() -> float:
    """Fastest of three runs of a fixed pure-Python loop, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(10000):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


class Clock:
    """Times calls; with `scaled`, each time is scaled to the reference speed
    by the calibration loop measured just before the call.

    The host's clock speed switches between regimes about 1.45x apart for
    interpreted code, each lasting from seconds to minutes; scaling by the
    calibration loop cancels most of that for interpreter-bound work.
    """

    def __init__(self, scaled: bool):
        self.scaled = scaled
        self.raw: list[float] = []
        self.calibration: list[float] = []

    def time(self, fn):
        c = _calibration() if self.scaled else None
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        self.raw.append(dt)
        if c is None:
            return result, dt
        self.calibration.append(c)
        return result, dt * CALIBRATION_REF_S / c


class Loop:
    """Runs rounds of operations, timing each one and checking its output.

    Every operation is deterministic, so each result must also equal the
    result the same operation gave in the first round it ran.
    """

    def __init__(self, clock: Clock, tracer=None):
        self.clock = clock
        self.tracer = tracer
        self.times: dict[str, list[float]] = {}  # per operation label
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # wrong outputs
        self.errors: list[str] = []  # operations that raised
        self.first: dict[str, object] = {}

    def round(self, ops) -> float:
        busy = 0.0
        for op in ops:
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.op = self.attempted
            try:
                result, dt = self.clock.time(op.run)
            except Exception as exc:  # counted, reported, and the loop goes on
                self.failed += 1
                self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            busy += dt
            self.times.setdefault(op.label, []).append(dt)
            self.problems += [f"{op.label}: {p}" for p in op.check(result)]
            if op.label not in self.first:
                self.first[op.label] = result
            elif result != self.first[op.label]:
                self.problems.append(f"{op.label}: output differs from its first run")
        return busy


def _peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if _import_library() is None:
        print(f"bench: cannot import adasub from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    cls = workloads.WORKLOADS.get(args.workload)
    if cls is None:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 3
    wl = cls()
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{args.workload}-{os.getpid()}"
    work_dir.mkdir()
    ctx = workloads.Context(work_dir=str(work_dir), src_dir=str(SRC))
    try:
        return _measure(wl, args, ctx, tracing)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _setups(wl, args, ctx, clock: Clock, times: list[float]):
    state = None
    for _ in range(wl.setup_reps):
        state, dt = clock.time(lambda: wl.setup(args.seed, ctx))
        times.append(dt)
    return state


def _measure(wl, args, ctx, tracing) -> int:
    setup_times: list[float] = []
    setup_clock = Clock(scaled=True)  # instance building is interpreted code
    ops = wl.ops(_setups(wl, args, ctx, setup_clock, setup_times), args.seed, ctx)
    loop = Loop(Clock(wl.scaled))
    extra: dict = {}

    if args.trace == 0:
        # Set-up runs again before each round, so that its median, like the
        # operation times, covers the whole run.
        start = time.perf_counter()
        rounds = 0
        while True:
            loop.round(ops)
            rounds += 1
            if rounds >= MIN_ROUNDS and time.perf_counter() - start >= args.seconds:
                break
            _setups(wl, args, ctx, setup_clock, setup_times)
        d = [t for ts in loop.times.values() for t in ts]
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": len(d) / sum(d), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(d) * 1000.0, "unit": "ms"},
            "peak_rss_mb": {
                "value": _peak_rss_mb(getattr(wl, "peak_rss_of_children", False)),
                "unit": "MB",
            },
        }
        extra = {"rounds": rounds, "ops_timed": len(d), "setups": len(setup_times),
                 "wall_s": time.perf_counter() - start,
                 "scaled": wl.scaled, "op_times_s": loop.times, "setup_times_s": setup_times,
                 "raw_op_times_s": loop.clock.raw, "raw_setup_times_s": setup_clock.raw,
                 "calibration_s": loop.clock.calibration}
        if len(d) >= 100:  # a tail percentile with at least ten samples beyond it
            extra["op_p90_ms"] = statistics.quantiles(d, n=10)[-1] * 1000.0
    else:
        untraced = sum(loop.round(ops) for _ in range(wl.trace_rounds))
        tracer, uninstall = tracing.install()
        ctx.tracer = tracer
        traced_loop = Loop(Clock(wl.scaled), tracer)
        traced_loop.first = loop.first  # tracing must not change any output
        try:
            tracer.active = True
            state = wl.setup(args.seed, ctx)
            tracer.active = False
            traced_ops = wl.ops(state, args.seed, ctx)
            tracer.active = True
            traced = sum(traced_loop.round(traced_ops) for _ in range(wl.trace_rounds))
        finally:
            uninstall()
        metrics = tracer.summary()
        metrics["trace.overhead_pct"] = {
            "value": (traced - untraced) / untraced * 100.0 if untraced else 0.0,
            "unit": "%",
        }
        spans_path = OUT / f"{wl.name}-seed{args.seed}.spans.tsv.gz"
        extra = {"untraced_s": untraced, "traced_s": traced, "rounds": wl.trace_rounds,
                 "spans": tracer.write(str(spans_path)), "spans_file": str(spans_path.name)}
        loop.attempted += traced_loop.attempted
        loop.failed += traced_loop.failed
        loop.problems += traced_loop.problems
        loop.errors += traced_loop.errors

    result = {
        "correct": not loop.problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    for p in loop.problems[:20]:
        print(f"WRONG {p}")
    for p in loop.errors[:20]:
        print(f"FAILED {p}")
    for name, m in metrics.items():
        print(f"{wl.name} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{wl.name} attempted={loop.attempted} failed={loop.failed} " +
          " ".join(f"{k}={v}" for k, v in extra.items() if isinstance(v, (int, float, str))))
    record = dict(result, workload=wl.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, detail=extra, problems=loop.problems, errors=loop.errors,
                  environment=_environment())
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
