"""Self-test of the benchmark itself (not of cmag_wkb).

    python3 perfbench/selftest.py

1. Every workload at a reduced size, untraced and traced: the result names
   exactly the metrics BENCHMARK.json declares, each with its declared unit,
   and the reduced run passes the gate.
2. One full-size seed-0 round per workload passes the gate against the
   stored reference, and fails it once one reference value is perturbed.
3. Self time equals span time minus child coverage on a synthetic span tree.

Exits non-zero on the first failed check. Takes about two minutes on two
cores.
"""

import copy
import json
import math
import os
import shutil
import sys

from run import END_TO_END, ROOT, SCRATCH, Round, measure, result_doc
from spans import PER_LAYER, aggregate, self_times
from workloads import WORKLOADS, check, load_reference


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS), "workload names"
    assert e2e == END_TO_END, f"end_to_end in BENCHMARK.json {e2e} vs emitted {END_TO_END}"
    assert layer == PER_LAYER, "per_layer in BENCHMARK.json differs from spans.PER_LAYER"
    return e2e, layer


def check_metric_names(workdir):
    e2e, layer = declared()
    for name, workload in WORKLOADS.items():
        for trace, units in ((0, e2e), (1, layer)):
            wd = os.path.join(workdir, f"{name}-small-{trace}")
            os.makedirs(wd)
            attempted, failed, metrics = measure(workload, 0, 0, bool(trace), wd,
                                                 small=True, log=lambda *a: None)
            doc = result_doc(attempted, failed, metrics, units)
            got = {n: m["unit"] for n, m in doc["metrics"].items()}
            assert got == units, f"{name} trace {trace}: emitted {sorted(got)}"
            assert all(isinstance(m["value"], (int, float)) for m in doc["metrics"].values())
            assert doc["correct"] and doc["attempted"] > 0, f"{name} trace {trace}: {doc}"
            print(f"ok  {name} trace={trace}: {len(got)} metrics, {attempted} ops")


def perturb(name, ref):
    bad = copy.deepcopy(ref)
    if "rows" in bad:
        bad["rows"][0]["ratio"] *= 1 + 1e-9
    elif "per_j_norms" in bad:
        bad["per_j_norms"][-1] *= 1 + 1e-6
    else:
        bad["member_Q"][0][0] += 1e-9
    return bad


def check_reference_gate(workdir):
    for name, workload in WORKLOADS.items():
        wd = os.path.join(workdir, f"{name}-ref")
        os.makedirs(wd)
        r = Round(workload, 0, wd, "r0", "plain")
        assert not r.gate.failed, f"{name}: seed 0 fails against its reference: {r.gate.problems}"
        bad = check(workload, 0, r.out, r.meta, reference=perturb(name, load_reference(name)))
        assert bad.failed, f"{name}: a perturbed reference passed the gate"
        print(f"ok  {name}: reference passes, perturbed reference fails "
              f"{bad.failed}/{bad.ops} ops ({bad.problems[0][:60]}...)")


def check_self_time():
    # parent 0 [0, 100]: children 1 [10, 30] and 2 [20, 50] overlap, 3 [90, 120]
    # runs past the parent; grandchild 4 [12, 18] sits inside child 1
    start = [0, 10, 20, 90, 12]
    end = [100, 30, 50, 120, 18]
    parent = [-1, 0, 0, 0, 1]
    got = self_times(start, end, parent)
    want = [100 - (40 + 10), 20 - 6, 30, 30, 6]
    assert got == want, f"self times {got} != {want}"
    # a recursive name counts its inclusive time once, its self time in full
    doc = {"names": ["a", "b"], "name": [0, 1, 0], "parent": [-1, 0, 1],
           "start_ns": [0, 10, 20], "end_ns": [100, 60, 40]}
    agg, _ = aggregate(doc)
    a, b = agg["a"], agg["b"]
    assert a["calls"] == 2 and math.isclose(a["s"], 100e-9), a
    assert math.isclose(a["self_s"], 70e-9) and math.isclose(b["self_s"], 30e-9), agg
    print("ok  self time = span time - child coverage on a synthetic tree")


def main():
    workdir = os.path.join(SCRATCH, "selftest")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    check_self_time()
    check_metric_names(workdir)
    check_reference_gate(workdir)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
