"""hallalg benchmark: one workload, closed loop with one client, one pass at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  The seed picks an orientation and vertex relabelling of the
workload's graph (seed 0 gives the bundled quiver); the quiver is written
as JSON beside the results in ``.perfbench-out/`` and is the only input the
program sees.  A pass is one fresh Python process that imports
``hallalg.cli`` and calls ``hallalg.cli.main(argv)`` on the workload's
argument lists in order.  Passes repeat until --seconds are used (at least
three).  Every pass is checked: each call returns 0, every verify report is
``"ok": true``, tables pass independent checks, and all passes give
byte-identical reports.

Times are rescaled to a fixed core speed: each worker samples a reference
loop while it runs, and a wall time w becomes w * REF_NOMINAL_S / (median
reference time).  On a quiet core this is close to the wall time; on a
shared host it removes the 1.5-1.8x swings of core speed that other
tenants cause, which plain wall time cannot tell from a change in the
program.  The raw wall times are kept in the result file.

--trace 0 prints the end-to-end metrics (medians over passes).  --trace 1
runs one untraced pass and then traced passes, checks that every work count
repeats exactly between traced passes, and prints the per-layer metrics.
Per-layer times are raw seconds of the traced passes (the sampling
thread's share, about 1%, lands in whichever span is open);
trace.overhead_ratio compares rescaled times.  The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
every check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time

from workloads import (ALL_SUITES, WORKLOADS, argv_lists,
                       check_tables, check_verify_report, quiver_bytes)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_PASSES = 3
PROBES_PER_PASS = 4
HARD_LIMIT_S = 160.0     # no pass starts that would end after this
REF_NOMINAL_S = 0.0006   # reference loop on an uncontended Xeon core at 2.1 GHz
SUITE_LINE = re.compile(r"^\[(\w+)\] (\d+) instances, (\d+) failures, ([\d.]+)s$")


def git_sha(root):
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metadata(root):
    src = os.path.join(root, "src", "hallalg")
    loc = 0
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as fh:
                loc += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "git_sha": git_sha(root), "src_loc": loc}


def spawn(args, timeout):
    """Run a worker; returns (t_spawn, returncode, stdout, stderr)."""
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                               "--root", ROOT] + args, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        return t_spawn, None, exc.stdout or "", f"timed out after {timeout:.0f}s"
    return t_spawn, proc.returncode, proc.stdout, proc.stderr


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


class Run:
    """Passes of one workload at one seed, with their checks."""

    def __init__(self, workload, seed, outdir, quiver_path, quiver):
        self.workload = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.outdir = outdir
        self.quiver_path = quiver_path
        self.quiver = quiver
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self.setups = []
        self.passes = []
        self.shas = None                  # report name -> sha256, from pass 0
        self.checks = 0                   # checks in one pass's reports

    def fail(self, text):
        self.problems.append(text)
        self.failed += 1

    def probe(self, timeout):
        t_spawn, rc, out, err = spawn(["--probe"], timeout)
        doc = last_json(out) if rc == 0 else None
        if doc is None:
            self.attempted += 1
            self.fail(f"set-up probe exited {rc}: {err.strip()[-300:]}")
            return
        self.setups.append((doc["ready"] - t_spawn) * REF_NOMINAL_S / doc["ref_s"])

    def one_pass(self, traced, timeout):
        k = len(self.passes)
        pdir = os.path.join(self.outdir, f"pass{k}")
        os.makedirs(pdir)
        calls, names = [], []
        for i, argv in enumerate(argv_lists(self.workload, self.quiver_path, self.seed)):
            name = f"{i}-{argv[1] if argv[0] == 'verify' else argv[0]}.json"
            calls.append(argv + ["--out", os.path.join(pdir, name)])
            names.append(name)
        with open(os.path.join(pdir, "calls.json"), "w") as fh:
            json.dump(calls, fh, indent=1)
        args = ["--calls", os.path.join(pdir, "calls.json"), "--trace", str(int(traced))]
        if traced:
            args += ["--spans", os.path.join(pdir, "spans.json")]
        t_spawn, rc, out, err = spawn(args, timeout)
        doc = last_json(out) if rc == 0 else None
        if doc is None:
            self.attempted += 1
            budget = "exceeds budget" in err
            self.fail(f"pass {k}: worker exited {rc}{' (budget stop)' if budget else ''}: "
                      f"{err.strip()[-300:]}")
            return None
        run_s = doc["wall_s"] * REF_NOMINAL_S / doc["ref_s"]
        suites = {}
        for line in err.splitlines():
            m = SUITE_LINE.match(line)
            if m:
                suites[m.group(1)] = (int(m.group(2)), float(m.group(4)))
        checks = self.check_reports(k, pdir, names, doc["rcs"], suites)
        rec = {"pass": k, "traced": traced, "run_s": run_s, "wall_s": doc["wall_s"],
               "ref_s": doc["ref_s"], "setup_wall_s": doc["ready"] - t_spawn,
               "rss_mb": doc["rss_mb"], "checks": checks, "suites": suites,
               "layers": doc.get("layers"), "missing": doc.get("missing"),
               "hook_errors": doc.get("hook_errors")}
        self.passes.append(rec)
        return rec

    def check_reports(self, k, pdir, names, rcs, suites):
        shas = []
        checks = 0
        for name, rc in zip(names, rcs):
            path = os.path.join(pdir, name)
            if rc != 0:
                self.attempted += 1
                self.fail(f"pass {k}: {name} exited {rc}")
            if not os.path.exists(path):
                self.fail(f"pass {k}: {name} was not written")
                shas.append(None)
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            shas.append(hashlib.sha256(data).hexdigest())
            if self.shas is not None:
                continue                      # identical bytes were checked once
            try:
                doc = json.loads(data)
                if self.spec["suites"] is None:
                    rng = random.Random(self.seed)
                    problems, n = check_tables(doc, self.quiver, self.spec["q"],
                                               self.spec["max_dim"], rng)
                else:
                    suite = name.split("-", 1)[1][:-5]
                    problems, n = check_verify_report(doc, suite, suites)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                problems, n = [f"malformed report: {exc!r}"], 0
            checks += n
            for p in problems:
                self.fail(f"pass {k}: {name}: {p}")
        if self.shas is None:
            self.shas = dict(zip(names, shas))
            self.checks = checks
        else:
            for name, sha in zip(names, shas):
                if sha != self.shas[name]:
                    self.fail(f"pass {k}: {name} differs from pass 0 "
                              f"({sha} != {self.shas[name]})")
            for name in names:                  # keep one copy of the reports
                if os.path.exists(os.path.join(pdir, name)):
                    os.remove(os.path.join(pdir, name))
        self.attempted += self.checks
        return self.checks


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run):
    plain = [p for p in run.passes if not p["traced"]]
    run_s = median([p["run_s"] for p in plain])
    return {
        "run_s": run_s,
        "checks_per_s": median([p["checks"] / p["run_s"] for p in plain]),
        "setup_s": median(run.setups),
        "peak_rss_mb": median([p["rss_mb"] for p in plain]),
        "failed_share": run.failed / max(run.attempted, 1),
    }


def per_layer(run):
    traced = [p for p in run.passes if p["traced"]]
    plain = [p for p in run.passes if not p["traced"]]
    rows = []
    for p in traced:
        row = dict(p["layers"])
        for suite in ALL_SUITES:
            n, secs = p["suites"].get(suite, (0, 0.0))
            row[f"verify.{suite}_s"] = secs
            row[f"verify.{suite}.instances"] = n
        rows.append(row)
    out = {}
    for name in rows[0]:
        values = [r[name] for r in rows]
        if name.endswith("_s"):
            out[name] = median(values)
        else:
            out[name] = values[0]
            if any(v != values[0] for v in values):
                run.fail(f"count {name} drifts between traced passes: {values}")
    out["trace.overhead_ratio"] = (median([p["run_s"] for p in traced])
                                   / median([p["run_s"] for p in plain]))
    for name in traced[-1]["missing"]:
        print(f"# traced name missing: {name}")
    for text in traced[-1]["hook_errors"]:
        print(f"# count hook error: {text}")
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "hallalg", "cli.py")):
        print(f"error: no hallalg sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)

    spec = WORKLOADS[args.workload]
    outdir = os.path.join(ROOT, ".perfbench-out", args.workload,
                          f"seed{args.seed}-trace{args.trace}")
    shutil.rmtree(outdir, ignore_errors=True)
    os.makedirs(outdir)
    graph = spec["graph"]
    qbytes = quiver_bytes(graph, args.seed)
    quiver_path = os.path.join(outdir, f"{graph.lower()}.json")
    with open(quiver_path, "wb") as fh:
        fh.write(qbytes)
    run = Run(args.workload, args.seed, outdir, quiver_path, json.loads(qbytes))
    meta = metadata(ROOT)
    print(f"# workload {args.workload} seed {args.seed} quiver {qbytes.decode().strip()}")
    print(f"# meta {json.dumps(meta, sort_keys=True)}")

    start = time.monotonic()
    estimate = 0.0
    while True:
        elapsed = time.monotonic() - start
        k = len(run.passes)
        if k >= MIN_PASSES and elapsed + estimate > args.seconds:
            break
        if elapsed + estimate > HARD_LIMIT_S or run.failed:
            break
        timeout = HARD_LIMIT_S + 15 - elapsed
        for _ in range(PROBES_PER_PASS):
            run.probe(timeout)
        t0 = time.monotonic()
        rec = run.one_pass(traced=bool(args.trace) and k > 0, timeout=timeout)
        estimate = max(estimate, time.monotonic() - t0)
        if rec is None:
            break
        print(f"# pass {k}{' traced' if rec['traced'] else ''}: run {rec['run_s']:.3f} s "
              f"(wall {rec['wall_s']:.3f} s, reference loop {rec['ref_s'] * 1e3:.3f} ms), "
              f"rss {rec['rss_mb']:.1f} MB, {rec['checks']} checks")
    if len(run.passes) < MIN_PASSES and not run.failed:
        run.fail(f"only {len(run.passes)} passes fit in {HARD_LIMIT_S:.0f} s")

    metrics = {}
    if run.passes and not run.failed:
        metrics.update(end_to_end(run))
        if args.trace:
            metrics.update(per_layer(run))
    for name, sha in (run.shas or {}).items():
        print(f"# report sha256 {name} {sha}")
    for text in run.problems[:50]:
        print(f"# FAILED {text}")
    correct = not run.failed and bool(run.passes)
    section = "per_layer" if args.trace else "end_to_end"
    wanted = {m["name"]: m["unit"] for m in declared[section]}
    if correct:
        shown = dict(wanted)
        if not args.trace:
            shown["failed_share"] = "ratio"
        for name, unit in shown.items():
            print(f"{name} {metrics[name]:.6g} {unit}")
    result = {"correct": correct, "attempted": max(run.attempted, 1),
              "failed": run.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in wanted.items()} if correct else {}}
    with open(os.path.join(outdir, "result.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "meta": meta, "quiver": json.loads(qbytes),
                   "report_sha256": run.shas, "problems": run.problems,
                   "passes": run.passes, "setups": run.setups,
                   "result": result}, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
