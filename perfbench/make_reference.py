"""Write the seed-0 reference outputs under perfbench/reference/.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs each workload once at seed 0 (variant 0), applies the seed-independent
checks, and stores the outputs the gate compares against. Regenerate only
when a change is meant to alter the numbers, and say so in the change.
"""

import json
import os
import subprocess
import sys
import tempfile

from run import CHILD, CHILD_ENV, ROOT, SCRATCH
from workloads import HERE, WORKLOADS, Gate


def main(names):
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    os.makedirs(SCRATCH, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            out = os.path.join(tmp, "out")
            os.makedirs(out)
            meta_path = os.path.join(tmp, "meta.json")
            proc = subprocess.run([sys.executable, CHILD, meta_path, "plain",
                                   *workload.argv(0, out)],
                                  cwd=ROOT, env=dict(os.environ, **CHILD_ENV))
            with open(meta_path) as fh:
                meta = json.load(fh)
            meta["exit_code"] = proc.returncode
            gate = Gate(workload.ops())
            workload.check(out, meta, gate)
            if gate.failed:
                sys.exit(f"{name}: seed 0 fails the gate: {gate.problems}")
            doc = workload.reference_doc(out, meta)
        path = os.path.join(HERE, "reference", f"{name}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
        print(f"wrote {os.path.relpath(path, ROOT)}")


if __name__ == "__main__":
    main(sys.argv[1:])
