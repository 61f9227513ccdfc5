"""cmag-wkb benchmark: one workload, one seed, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree (the package is imported from ``src``;
nothing is installed). Each round starts a fresh, single-process
``cmag-wkb`` invocation (perfbench/child.py) with CMAG_WKB_WORKERS=1 and one
BLAS thread, and passes its outputs through the correctness gate
(workloads.py). Rounds repeat until the next one would overrun ``--seconds``
(at least two untraced rounds, or one untraced/traced pair).

--trace 0 prints the end-to-end metrics: medians over the rounds of wall
time, set-up time (process start to the first main-loop call), peak RSS and
main-loop throughput. --trace 1 alternates untraced and traced rounds and
prints the per-layer metrics of the traced rounds (medians) and the tracing
overhead. The last stdout line is the JSON result; the lines before it give
the provenance record and each metric's spread. Scratch output goes to
``.perfbench/`` under the root.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SCRATCH = os.path.join(ROOT, ".perfbench")

from spans import PER_LAYER, layer_metrics  # noqa: E402
from workloads import WORKLOADS, check  # noqa: E402

CHILD_ENV = {
    "CMAG_WKB_WORKERS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
ROUND_TIMEOUT_S = 80.0
RUN_LIMIT_S = 150.0  # no new round once a run would pass this, whatever --seconds says

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "main_loop_items_per_s": "1/s"}


def monotonic_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


class Round:
    """One workload process: timings, usage, gate verdict."""

    def __init__(self, workload, seed, workdir, tag, mode, small=False):
        out = os.path.join(workdir, tag)
        os.makedirs(out)
        argv = workload.argv(seed, out, small)
        meta_path = os.path.join(workdir, f"{tag}.json")
        stdout_path = os.path.join(workdir, f"{tag}.stdout")
        stderr_path = os.path.join(workdir, f"{tag}.stderr")
        env = dict(os.environ, **CHILD_ENV)
        with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
            t0 = monotonic_ns()
            proc = subprocess.Popen([sys.executable, CHILD, meta_path, mode, *argv],
                                    cwd=ROOT, env=env, stdout=so, stderr=se)
            timer = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            t1 = monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            with open(meta_path) as fh:
                self.meta = json.load(fh)
        except (OSError, ValueError):
            self.meta = {}
        self.meta["exit_code"] = proc.returncode
        self.argv, self.out = argv, out
        self.wall_s = (t1 - t0) * 1e-9
        self.rss_mb = usage.ru_maxrss / 1024.0
        loop_ns = self.meta.get("main_loop_ns")
        self.setup_s = (loop_ns - t0) * 1e-9 if loop_ns else None
        self.gate = check(workload, seed, out, self.meta, small=small)
        self.rate = None
        if loop_ns and proc.returncode == 0:
            try:
                self.rate = workload.items(out) / ((t1 - loop_ns) * 1e-9)
            except (OSError, KeyError, ValueError):
                pass  # unreadable outputs: the gate has failed this round already
        self.out_bytes = os.path.getsize(stdout_path) + sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out) for f in files)
        self.spans_path = meta_path[: -len(".json")] + ".spans.json"


def provenance(args, workload):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError, AttributeError):
        blas = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, _, files in sorted(os.walk(src)):
        for f in sorted(files):
            if f.endswith(".py"):
                path = os.path.join(d, f)
                digest.update(os.path.relpath(path, src).encode())
                digest.update(read(path, "rb"))
    return {
        "git_sha": git_sha(),
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "child_env": CHILD_ENV,
        "workload": workload.name,
        "seed": args.seed,
        "variant": workload.variant(args.seed),
        "argv": ["cmag-wkb", *workload.argv(args.seed, "<out>")],
        "seconds": args.seconds,
        "trace": args.trace,
    }


def read(path, mode="r"):
    with open(path, mode) as fh:
        return fh.read()


def git_sha():
    """HEAD of the enclosing repository, read without running git; None if absent."""
    git = os.path.join(ROOT, ".git")
    try:
        ref = read(os.path.join(git, "HEAD")).strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if os.path.exists(os.path.join(git, name)):
            return read(os.path.join(git, name)).strip()
        for line in read(os.path.join(git, "packed-refs")).splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def planned_threads():
    blas = max(int(CHILD_ENV[k]) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS"))
    return int(CHILD_ENV["CMAG_WKB_WORKERS"]) * blas


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return (f"median {statistics.median(values):.6g} q1 {q1:.6g} q3 {q3:.6g} "
            f"min {min(values):.6g} max {max(values):.6g} n {len(values)}")


def measure(workload, seed, seconds, trace, workdir, small=False, log=print):
    """Run rounds for ``seconds``; returns (attempted, failed, metric medians)."""
    plain, traced = [], []
    t_start = time.monotonic()
    k = 0
    while True:
        plain.append(Round(workload, seed, workdir, f"r{k}", "plain", small))
        if trace:
            traced.append(Round(workload, seed, workdir, f"t{k}", "trace", small))
        k += 1
        elapsed = time.monotonic() - t_start
        per_round = elapsed / k
        if elapsed + per_round > RUN_LIMIT_S:
            break
        if k >= (1 if trace else 2) and elapsed + per_round > seconds:
            break
    rounds = plain + traced
    for r in rounds:
        for problem in r.gate.problems:
            print(f"gate: {workload.name} seed {seed}: {problem}", file=sys.stderr)
    attempted = sum(r.gate.ops for r in rounds)
    failed = sum(r.gate.failed for r in rounds)

    series = {
        "wall_s": [r.wall_s for r in plain],
        "setup_s": [r.setup_s for r in plain if r.setup_s is not None],
        "peak_rss_mb": [r.rss_mb for r in plain],
        "main_loop_items_per_s": [r.rate for r in plain if r.rate is not None],
    }
    if trace:
        layers = []
        for r in traced:
            if not os.path.exists(r.spans_path):
                continue
            with open(r.spans_path) as fh:
                m = layer_metrics(json.load(fh))
            m["cli.out_bytes"] = r.out_bytes
            m["trace.wall_s"] = r.wall_s
            layers.append(m)
        series = {name: [m[name] for m in layers] for name in (layers[0] if layers else {})}
        if layers:
            series["trace.overhead_s"] = [statistics.median(r.wall_s for r in traced)
                                          - statistics.median(r.wall_s for r in plain)]
    for name, values in series.items():
        if values and (not trace or name.endswith("wall_s") or name == "trace.overhead_s"):
            log(f"{workload.name} {name}: {spread(values)}")
    metrics = {name: statistics.median(values) for name, values in series.items() if values}
    return attempted, failed, metrics


def result_doc(attempted, failed, metrics, units):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.exists(os.path.join(ROOT, "src", "cmag_wkb", "cli.py")):
        print(f"no cmag_wkb sources under {ROOT}/src: run from a source tree", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    if planned_threads() > nproc:
        print(f"refusing: a workload would use {planned_threads()} threads on {nproc} CPUs",
              file=sys.stderr)
        return 3
    workload = WORKLOADS[args.workload]
    prov = provenance(args, workload)
    print("provenance: " + json.dumps(prov, sort_keys=True))

    compileall.compile_dir(os.path.join(ROOT, "src"), quiet=1)
    workdir = os.path.join(SCRATCH, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    with open(os.path.join(workdir, "provenance.json"), "w") as fh:
        json.dump(prov, fh, indent=1, sort_keys=True)

    attempted, failed, metrics = measure(workload, args.seed, args.seconds,
                                         bool(args.trace), workdir)
    names = PER_LAYER if args.trace else END_TO_END
    missing = [n for n in names if n not in metrics]
    if missing:
        print(f"no measurement for {missing}: every round failed early", file=sys.stderr)
        return 1
    result = result_doc(attempted, failed, metrics, names)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
