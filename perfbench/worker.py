"""One measured process: set up a workload, run timed passes, print one JSON line.

Started by run.py in a fresh interpreter, so every run pays kraitchik's cold
caches the way a ``kraitchik`` invocation does (they are also cleared before
every pass).  ``--setup-only`` stops after set-up and reports its time; run.py
starts several of those to take a median.

The timed phase repeats whole passes over the workload's fixed cases while the
next pass is expected to end within ``--seconds`` (at least one pass).  With
``--trace 1`` the first pass runs untraced, as the baseline for the tracing
overhead, and the remaining passes run with the Tracer installed; the probe
below runs in both modes.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before kraitchik is imported

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
from fractions import Fraction
from pathlib import Path

from run import WORKLOADS

# The host's speed swings by tens of percent from one second to the next
# (other tenants share the cores), more than any change worth detecting.  An
# run therefore times a fixed reference kernel every PROBE_PERIOD_S from a
# SIGALRM handler and rescales each timing to the speed at which the kernel
# takes REF_NOMINAL_S.  Time spent in the handler is not counted.
PROBE_PERIOD_S = 0.05
REF_NOMINAL_S = 0.0015


def reference_s() -> float:
    """Time of a fixed kernel of Fraction and small-int arithmetic, like kraitchik's."""
    t = time.perf_counter()
    h = Fraction(0)
    for k in range(1, 120):
        h += Fraction(1, k)
    acc = 0
    for i in range(10_000):
        acc += i * i % 7
    return time.perf_counter() - t


class SpeedProbe:
    """Samples of the reference kernel, taken on a timer while the run goes on."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (time taken, kernel seconds)

    def _sample(self, *_):
        self.samples.append((time.perf_counter(), reference_s()))

    def start(self) -> None:
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def rescale(self, start: float, end: float) -> float:
        """Seconds of program work in [start, end], rescaled to REF_NOMINAL_S speed."""
        return rescale(self.samples, start, end)


def rescale(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Rescale the wall time of [start, end] by the probe samples taken in it.

    The kernel's own time is taken out first; a window with no sample in it
    uses the last sample before it.
    """
    inside = [k for t, k in samples if start < t <= end]
    speed = inside or [next(k for t, k in reversed(samples) if t <= end)]
    return (end - start - sum(inside)) * REF_NOMINAL_S / statistics.mean(speed)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.latencies: dict[str, list[float]] = {}  # rescaled seconds per case
        self.raw_s = 0.0  # seconds inside cases, before rescaling


def kraitchik_caches() -> list:
    """Every lru_cache in kraitchik, so each pass can start as cold as a fresh process."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if name == "kraitchik" or name.startswith("kraitchik."):
            for obj in vars(mod).values():
                if hasattr(obj, "cache_clear"):
                    found[id(obj)] = obj
    return list(found.values())


def run_pass(wl, tracer, probe: SpeedProbe, tally: Tally, caches: list) -> float:
    """One pass over the cases; returns its rescaled wall time."""
    for cache in caches:
        cache.cache_clear()
    gc.collect()
    wall = 0.0
    for case in wl.cases:
        t = time.perf_counter()
        try:
            attempted, failed = wl.run(case, tracer)
        except Exception as exc:  # a raising case is a failed case, not a crashed run
            attempted, failed = 1, 1
            tally.errors.append(f"{wl.label(case)}: {exc!r}")
        end = time.perf_counter()
        latency = probe.rescale(t, end)
        tally.latencies.setdefault(wl.label(case), []).append(latency)
        tally.raw_s += end - t
        tally.attempted += attempted
        tally.failed += failed
        wall += latency
    return wall


def run_passes(wl, tracer, probe: SpeedProbe, tally: Tally, caches: list, deadline: float) -> list[float]:
    walls: list[float] = []
    elapsed: list[float] = []
    while not walls or time.perf_counter() + statistics.median(elapsed) <= deadline:
        start = time.perf_counter()
        walls.append(run_pass(wl, tracer, probe, tally, caches))
        elapsed.append(time.perf_counter() - start)
    return walls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    probe = SpeedProbe()
    probe.start()
    try:
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
        import mpmath.libmp
        import workloads
        from tracer import Tracer

        wl = workloads.WORKLOADS[args.workload](args.seed)
        setup_end = time.perf_counter()
        result = {
            "setup_s": probe.rescale(_T0, setup_end),
            "raw_setup_s": setup_end - _T0,
            "mpmath_backend": mpmath.libmp.BACKEND,
        }
        if not args.setup_only:
            tally = Tally()
            caches = kraitchik_caches()
            start = time.perf_counter()
            deadline = start + args.seconds
            if args.trace:
                untraced = run_pass(wl, None, probe, tally, caches)
                raw_before = tally.raw_s
                tracer = Tracer()
                tracer.install()
                try:
                    walls = run_passes(wl, tracer, probe, tally, caches, deadline)
                finally:
                    tracer.uninstall()
                # span times get the same rescaling as the passes that hold them
                scale = sum(walls) / (tally.raw_s - raw_before)
                result["layers"] = tracer.layer_metrics(len(walls), untraced, statistics.median(walls), scale)
            else:
                walls = run_passes(wl, None, probe, tally, caches, deadline)
            result.update(
                timed_s=time.perf_counter() - start,
                raw_case_s=tally.raw_s,
                pass_walls=walls,
                latencies=tally.latencies,
                attempted=tally.attempted,
                failed=tally.failed,
                errors=tally.errors[:20],
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            )
    finally:
        probe.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
