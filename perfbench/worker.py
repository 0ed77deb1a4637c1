"""One benchmark pass in a fresh process.

    python3 perfbench/worker.py --root ROOT --probe
    python3 perfbench/worker.py --root ROOT --calls CALLS.json --trace 0|1 [--spans OUT.json]

The worker imports ``hallalg.cli`` from ROOT/src and records when it is
ready.  With --probe it stops there; otherwise it calls
``hallalg.cli.main(argv)`` on each argument list in CALLS.json in order
(each writes its report with --out).  With --trace 1 the outside-in tracer
is installed after the import and its spans are written to --spans.  The
last line of standard output is one JSON object with the timings.

The speed of the core is sampled alongside: a thread times a fixed
reference loop every 50 ms, and a probe times the loop right after the
import.  The worker is pinned to one CPU, so the sampling thread (which
holds the interpreter lock while it runs) measures the core the program
runs on.  On a shared host that core's speed swings by up to 1.8x within
seconds; the median reference time lets the caller rescale wall time to a
fixed reference speed.  The reference loop's own memory is subtracted from
the peak resident size.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import threading
import time

SAMPLE_INTERVAL_S = 0.05
SPREAD = 1 << 18


def resident_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


_TABLE = {}
_SPREAD = []


def prepare_reference():
    """Allocate the reference loop's data (about 10 MB); returns its size in MB."""
    before = resident_mb()
    _SPREAD[:] = range(1000, 1000 + SPREAD)
    return resident_mb() - before


def _step(x):
    return x * 1000003 + 7


def reference():
    """A fixed loop with the program's two kinds of work.

    Calls, dict lookups and integer arithmetic run from cache; random reads
    over _SPREAD miss it.  Contention from other tenants slows the first
    kind less and the second kind more than it slows the program, so the
    loop does both.  It allocates no object the cyclic garbage collector
    tracks, so a collection of the program's heap never lands in a sample.
    """
    table = _TABLE
    table.clear()
    acc = 0
    for i in range(1000):
        key = i % 91
        table[key] = table.get(key, 0) + 1
        acc = (acc + _step(i)) % 1000000007
    data = _SPREAD
    idx = 12345
    for _ in range(800):
        idx = (idx * 1103515245 + 12345) & (SPREAD - 1)
        acc += data[idx]
    return acc


def time_reference():
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


class SpeedSampler:
    """Times the reference loop every SAMPLE_INTERVAL_S while in use."""

    def __init__(self):
        self.samples = [time_reference()]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            self.samples.append(time_reference())

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self.samples.append(time_reference())


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--calls")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans")
    args = parser.parse_args()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    sys.path.insert(0, os.path.join(args.root, "src"))
    import hallalg.cli as cli
    ready = time.monotonic()
    result = {"ready": ready}
    reference_mb = prepare_reference()
    if args.probe:
        result["ref_s"] = statistics.median(time_reference() for _ in range(11))
        print(json.dumps(result))
        return 0

    with open(args.calls) as fh:
        calls = json.load(fh)
    tracer = None
    if args.trace:
        import tracer as tracing
        import hallalg.cathall, hallalg.groupoids, hallalg.hall, hallalg.linalg
        import hallalg.quiver, hallalg.verify
        tracer = tracing.Tracer()
        tracer.install({layer: sys.modules[f"hallalg.{layer}"]
                        for layer in tracing.LAYERS})
    with SpeedSampler() as speed:
        t0 = time.perf_counter()
        rcs = [cli.main(argv) for argv in calls]
        result["wall_s"] = time.perf_counter() - t0
    result["ref_s"] = statistics.median(speed.samples)
    result["rcs"] = rcs
    result["rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                        - reference_mb)
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["missing"] = tracer.missing
        result["hook_errors"] = tracer.hook_errors[:20]
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans(), fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
