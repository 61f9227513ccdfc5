"""The three workloads: seeded inputs, outputs, and the correctness gate.

Each workload is one ``cmag-wkb`` CLI invocation. A seed picks one of 16
variants (seed mod 16); variant 0 is the reference configuration, whose
outputs are stored under ``reference/``. Every variant was run through the
gate below (check_variants.py). An *operation* is one h point, one solve or
one raster point; a check that covers a whole invocation fails all of its
operations.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
VARIANTS = 16

IDENTITY_LIMIT = 1e-10   # worst identity residual, criterion 1
RATIO_RTOL = 1e-10       # series residual ratios and norms against the reference
FD_RTOL = 1e-8           # finite-difference ratio and norm against the reference
FIT_ATOL = 1e-8          # growth exponent against the reference
GROWTH_RTOL = 1e-8       # amplitude sup-norms and m against the reference
Q_ATOL = 1e-12           # admissibility coefficients, criterion 2
Q_SUM_RTOL = 1e-12       # column sums of |Q| over the raster
FD_AGREEMENT = 0.10      # FD vs series ratio, criterion 5

FD_GRID_N = 192
DEEP_D, DEEP_JMAX = 48, 14
RASTER_N = 65            # grid spacing pi/16 over a 4 pi square


def _draws(k, boxes):
    rng = random.Random(k)
    return [round(lo + (hi - lo) * rng.random(), digits) for lo, hi, digits in boxes]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str

    def variant(self, seed):
        return seed % VARIANTS

    def argv(self, seed, out, small=False):
        raise NotImplementedError

    def ops(self, small=False):
        raise NotImplementedError

    def items(self, out):
        """Main-loop items in the outputs, for main_loop_items_per_s."""
        raise NotImplementedError


# ----------------------------------------------------------------------------
# output readers
# ----------------------------------------------------------------------------

def read_residuals(out):
    path = os.path.join(out, "residuals.csv")
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    rows = []
    for r in csv.DictReader(lines):
        rows.append({"h": float(r["h"]), "evaluator": r["evaluator"],
                     "u_norm": float(r["u_norm"]), "ratio": float(r["ratio"]),
                     "quad_points": int(r["quad_points"])})
    return rows


def read_json(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def read_raster(out):
    with open(os.path.join(out, "raster.csv")) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return [{"x1": float(r["x1"]), "x2": float(r["x2"]), "in_gamma": r["in_gamma"] == "1",
             "Q": (float(r["Q1"]), float(r["Q2"]), float(r["Q3"]))}
            for r in csv.DictReader(lines)]


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def exited_cleanly(meta, gate):
    if meta.get("exit_code") == 0:
        return True
    gate.fail(f"exit code {meta.get('exit_code')}")
    return False


def check_identity(meta, gate):
    worst = meta.get("worst_identity")
    if worst is None or not worst <= IDENTITY_LIMIT:
        gate.fail(f"worst identity residual {worst} > {IDENTITY_LIMIT}")


class Gate:
    """Counts failed operations; a failure never aborts the run."""

    def __init__(self, ops):
        self.ops = ops
        self.failed_ops = set()
        self.problems = []

    def fail(self, what, ops=None):
        self.problems.append(what)
        self.failed_ops.update(range(self.ops) if ops is None else ops)

    @property
    def failed(self):
        return len(self.failed_ops)


# ----------------------------------------------------------------------------
# run: fd-crosscheck
# ----------------------------------------------------------------------------

class FdCrosscheck(Workload):
    def params(self, seed):
        k = self.variant(seed)
        if k == 0:
            return "1", "1"
        a, c = _draws(k, [(0.9, 1.1, 3), (0.9, 1.1, 3)])
        return f"{a}", f"{c}"

    def argv(self, seed, out, small=False):
        a, c = self.params(seed)
        return ["run", "--builtin", "polynomial", "--a", a, "--b", "i", "--c", c,
                "--x0", "0,0", "--N", "1", "--h", "0.1:0.05:2", "--evaluator", "both",
                "--grid-n", str(128 if small else FD_GRID_N), "--out", out]

    def ops(self, small=False):
        return 3  # two series h points and one finite-difference check

    def items(self, out):
        return sum(r["quad_points"] for r in read_residuals(out)
                   if r["evaluator"] == "series_exact")

    def reference_doc(self, out, meta):
        return {"rows": read_residuals(out)}

    def check(self, out, meta, gate, reference=None, seed=0, small=False):
        if not exited_cleanly(meta, gate):
            return
        check_identity(meta, gate)
        try:
            rows = read_residuals(out)
        except (OSError, KeyError, ValueError) as exc:
            gate.fail(f"residuals.csv unreadable: {exc}")
            return
        series = [r for r in rows if r["evaluator"] == "series_exact"]
        fd = [r for r in rows if r["evaluator"] == "finite_difference"]
        if (len(series), len(fd)) != (2, 1):
            gate.fail(f"{len(series)} series and {len(fd)} FD rows, expected 2 and 1")
            return
        for k, r in enumerate(series):
            if not (math.isfinite(r["ratio"]) and r["ratio"] > 0):
                gate.fail(f"h={r['h']}: ratio {r['ratio']}", [k])
        match = [r for r in series if r["h"] == fd[0]["h"]]
        if not match:
            gate.fail(f"no series row at the FD h={fd[0]['h']}", [2])
        elif not _rel(fd[0]["ratio"], match[0]["ratio"]) <= FD_AGREEMENT:
            gate.fail(f"FD ratio {fd[0]['ratio']} vs series {match[0]['ratio']}", [2])
        if reference is None:
            return
        for k, (got, ref) in enumerate(zip(rows, reference["rows"])):
            tol = RATIO_RTOL if ref["evaluator"] == "series_exact" else FD_RTOL
            if (got["evaluator"] != ref["evaluator"] or got["h"] != ref["h"]
                    or got["quad_points"] != ref["quad_points"]
                    or _rel(got["ratio"], ref["ratio"]) > tol
                    or _rel(got["u_norm"], ref["u_norm"]) > tol):
                gate.fail(f"row {k} differs from the reference: {got} vs {ref}", [k])


# ----------------------------------------------------------------------------
# bound-fit: deep-solve
# ----------------------------------------------------------------------------

# x1 = k pi/48 along x2 = -pi/2, inside (0, pi) and away from pi/2. Only the
# k whose solve does the same product work as seed 0 (pi/3 = 16 pi/48), to
# within 0.3% of its coefficient-pair count: exact zeros in the series make
# that count differ by up to 27% between base points.
DEEP_K = (16, 6, 10, 11, 12, 13, 15, 18, 29, 34, 35, 38, 39, 40, 41, 42)


class DeepSolve(Workload):
    def x1(self, seed):
        k = DEEP_K[self.variant(seed)]
        return "pi/3" if k == 16 else f"{k}pi/48"

    def argv(self, seed, out, small=False):
        D, jmax = (24, 6) if small else (DEEP_D, DEEP_JMAX)
        return ["bound-fit", "--builtin", "oscillating", "--x0", f"{self.x1(seed)},-pi/2",
                "--jmax", str(jmax), "--D", str(D),
                "--out", os.path.join(out, "bound_fit.json")]

    def ops(self, small=False):
        return 1

    def reference_doc(self, out, meta):
        return read_json(out, "bound_fit.json")

    def check(self, out, meta, gate, reference=None, seed=0, small=False):
        if not exited_cleanly(meta, gate):
            return
        check_identity(meta, gate)
        try:
            got = read_json(out, "bound_fit.json")
        except (OSError, ValueError) as exc:
            gate.fail(f"bound_fit.json unreadable: {exc}")
            return
        if got.get("bound_holds") is not True:
            gate.fail("growth bound does not hold")
        if reference is None:
            return
        norms, ref_norms = got["per_j_norms"], reference["per_j_norms"]
        if (len(norms) != len(ref_norms)
                or any(_rel(a, b) > GROWTH_RTOL for a, b in zip(norms, ref_norms))
                or _rel(got["m_fitted"], reference["m_fitted"]) > GROWTH_RTOL
                or abs(got["sigma_fitted"] - reference["sigma_fitted"]) > FIT_ATOL
                or any(_rel(a, b) > GROWTH_RTOL
                       for a, b in zip(got["polydisc"], reference["polydisc"]))):
            gate.fail("growth fit differs from the reference")

    def items(self, out):
        return len(read_json(out, "bound_fit.json")["per_j_norms"]) - 1  # transport steps


# ----------------------------------------------------------------------------
# gamma-scan: gamma-raster
# ----------------------------------------------------------------------------

class GammaRaster(Workload):
    def shift(self, seed):
        k = self.variant(seed)
        if k == 0:
            return 0, 0
        rng = random.Random(k)
        return rng.randint(-8, 8), rng.randint(-8, 8)

    def n(self, small=False):
        return 17 if small else RASTER_N

    def argv(self, seed, out, small=False):
        n = self.n(small)
        cells = (n - 1) // 4  # grid cells per pi
        k1, k2 = self.shift(seed)
        if (k1, k2) == (0, 0) and not small:
            region = "-2pi,2pi,-2pi,2pi"
        else:
            region = ",".join(f"{-2 * cells + k}pi/{cells},{2 * cells + k}pi/{cells}"
                              for k in (k1, k2))
        return ["gamma-scan", "--builtin", "oscillating", f"--region={region}",
                "--n", str(n), "--out", os.path.join(out, "raster.csv")]

    def ops(self, small=False):
        return self.n(small) ** 2

    def expected(self, seed, small=False):
        """Closed-form admissible set (criterion 2): x2 = -pi/2 mod 2pi and
        x1 mod 2pi in (0, pi) minus pi/2, in whole grid cells."""
        n = self.n(small)
        cells = (n - 1) // 4
        k1, k2 = self.shift(seed)
        member = []
        for i in range(n):
            c1 = (-2 * cells + k1 + i) % (2 * cells)
            for j in range(n):
                c2 = (-2 * cells + k2 + j) % (2 * cells)
                member.append(c2 == (2 * cells - cells // 2) and 0 < c1 < cells
                              and c1 != cells // 2)
        return member

    def reference_doc(self, out, meta):
        rows = read_raster(out)
        return {
            "members": [k for k, r in enumerate(rows) if r["in_gamma"]],
            "member_Q": [r["Q"] for r in rows if r["in_gamma"]],
            "abs_Q_sums": [sum(abs(r["Q"][q]) for r in rows) for q in range(3)],
        }

    def check(self, out, meta, gate, reference=None, seed=0, small=False):
        if not exited_cleanly(meta, gate):
            return
        try:
            rows = read_raster(out)
        except (OSError, KeyError, ValueError) as exc:
            gate.fail(f"raster.csv unreadable: {exc}")
            return
        if len(rows) != gate.ops:
            gate.fail(f"{len(rows)} raster rows, expected {gate.ops}")
            return
        wrong = [k for k, (r, e) in enumerate(zip(rows, self.expected(seed, small)))
                 if r["in_gamma"] != e]
        if wrong:
            gate.fail(f"{len(wrong)} misclassified raster points", wrong)
        if reference is None:
            return
        members = [k for k, r in enumerate(rows) if r["in_gamma"]]
        if members != reference["members"]:
            gate.fail("member set differs from the reference",
                      set(members) ^ set(reference["members"]))
        for k, q_ref in zip(reference["members"], reference["member_Q"]):
            if any(abs(a - b) > Q_ATOL for a, b in zip(rows[k]["Q"], q_ref)):
                gate.fail(f"point {k}: Q {rows[k]['Q']} vs reference {q_ref}", [k])
        sums = [sum(abs(r["Q"][q]) for r in rows) for q in range(3)]
        if any(_rel(a, b) > Q_SUM_RTOL for a, b in zip(sums, reference["abs_Q_sums"])):
            gate.fail(f"column sums of |Q| {sums} vs reference {reference['abs_Q_sums']}")

    def items(self, out):
        return len(read_raster(out))


WORKLOADS = {
    w.name: w for w in (
        DeepSolve(
            "deep-solve",
            "series-algebra bound: high-degree BiSeries products dominate a deep transport "
            "solve with no pseudomode evaluation"),
        GammaRaster(
            "gamma-raster",
            "thousands of tiny cap-2 field builds and products: per-call overhead of the "
            "cseries/fieldmodel layers and the raster CSV writer"),
        FdCrosscheck(
            "fd-crosscheck",
            "residual evaluation on Gauss grids plus one dense uniform grid and the "
            "4th-order FD operator (the only numop workload), at criterion 5's configuration"),
    )
}


def load_reference(name):
    path = os.path.join(HERE, "reference", f"{name}.json")
    with open(path) as fh:
        return json.load(fh)


def check(workload, seed, out, meta, small=False, reference=None):
    """Gate one invocation; returns the Gate (ops attempted, ops failed)."""
    gate = Gate(workload.ops(small))
    if reference is None and seed % VARIANTS == 0 and not small:
        reference = load_reference(workload.name)
    try:
        workload.check(out, meta, gate, reference, seed=seed, small=small)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        gate.fail(f"outputs unreadable: {exc!r}")
    return gate
