"""Run every seeded variant of the workloads once through the gate.

    python3 perfbench/check_variants.py [WORKLOAD ...]

A seed selects variant seed mod 16, so these 16 rounds per workload cover
every input the benchmark can generate. Prints one line per variant (wall
and set-up time, throughput, peak RSS, gate verdict) and the spread of wall
time over the variants; exits non-zero if any variant fails the gate.
"""

import os
import shutil
import statistics
import sys

from run import SCRATCH, Round
from workloads import VARIANTS, WORKLOADS


def main(names):
    bad = 0
    for name in names or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        workdir = os.path.join(SCRATCH, "variants", name)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        walls = []
        for k in range(VARIANTS):
            r = Round(workload, k, workdir, f"v{k}", "plain")
            walls.append(r.wall_s)
            bad += bool(r.gate.failed)
            verdict = "ok" if not r.gate.failed else f"FAILED {r.gate.problems}"
            print(f"{name} variant {k:2d}: wall {r.wall_s:7.3f} s setup {r.setup_s or 0:6.3f} s "
                  f"rate {r.rate or 0:10.1f}/s rss {r.rss_mb:6.2f} MB {verdict} :: "
                  + " ".join(r.argv[:-2]), flush=True)
        q1, _, q3 = statistics.quantiles(walls, n=4)
        med = statistics.median(walls)
        print(f"{name}: wall median {med:.3f} s, quartile spread {(q3 - q1) / med:.1%}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
