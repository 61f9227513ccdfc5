"""Experiment harness: gamma scans, h-sweeps, condition checks, report emission.

Subcommands
-----------
run               full pipeline at one base point: admissibility report, WKB
                  solve with identity checks, growth fit, pseudomode h-sweep,
                  decay fits; artifacts land in --out.
gamma-scan        membership raster of the admissible set over a rectangle: one
                  field, built at the raster's first point, whose closed forms
                  are evaluated on the whole raster in one array pass.
check-conditions  sampled pointwise conditions (C1)/(C2) and the divergence
                  trends (H1)-(H3).
bound-fit         amplitude growth diagnostics only.

Examples
--------
  cmag-wkb run --builtin oscillating --x0 pi/3,-pi/2 --N 1 --h 0.1:0.003:8 --out out/  # exits 4
  cmag-wkb run --builtin polynomial --a 4 --b 0.3+i --c 1 --x0 0,0 --N 2 --out out/
  cmag-wkb gamma-scan --builtin oscillating --region=-2pi,2pi,-2pi,2pi --n 257 --out raster.csv
  cmag-wkb check-conditions --builtin exponential --c 0.4 --h 1 --region=-0.8,0.8,-0.8,0.8
  (use the --option=value form for values that begin with a minus sign).  The
  first run exits 4 by design: the built Re P is not positive at that point,
  so no decaying pseudomode exists there (acceptance criterion 4).

Fields: every parameter left out takes the default in the builder's signature
(fieldmodel.polynomial_field and so on), the base point included.  Only the
field flags that are typed reach the builder, and a flag the builtin does not
take (say --alpha with --builtin polynomial) exits 2.  `run --config FILE`
reads a JSON object {"builtin": ..., "params": {...}, "x0": [x1, x2]}; params
are the builder's keywords, each value a number, an [re, im] pair or a string
in pi or i form ("pi/3", "0.3+i"), and the tables R, A1, A2 are lists of
[m, n, value] rows (or [m, n, re, im]); a value of another shape exits 2.
Typed flags override the file.  The "field" block of the config.json that
run writes is such an object, defaults filled in, and replays the run's
field exactly.

Exit codes: 0 success, 2 config error, 3 admissibility rejection (like run's
gate, bound-fit refuses a base point where |B| or |dzbar B| is at most
GAMMA_TOL = 1e-9), 4 internal identity failure, 5 residual-grid quadrature
refusal (residuals.csv keeps the rows of the h before the refused one).  An
allocation the machine cannot make exits 2 with one line; run first writes
the series rows that finished to residuals.csv.  What can still run out of
memory: the n x n arrays of the FD cross-check (--grid-n), a raster of a
large --n, and an --h below about 1e-37, whose residual grid no array index
can count.  The series residual route sums its two Gauss squares (n and 2n
points per axis, n = 8 r_out / sqrt(h)) in blocks of 65536 nodes, so its
memory does not grow as h falls; it trades memory for time, about 0.2 us per
node of the squares on one core (5.7 s at h = 1e-5 on the workhorse).  The
degree cap must satisfy --D >= 3(N+2) with N >= 0 (for
run, N is max(N, jmax) when --adaptive is set; for bound-fit, N is jmax), and
--grid-n >= 16 with --evaluator both; violating either exits 2 before any
work starts.  So does an --h sweep other than h_max:h_min:count with
0 < h_min < h_max < inf and an integer count >= 2, and field data for which
curl A at the base point is not finite (a NaN parameter or base point; the
message names the point), and a base point whose |x0|^2 is not finite (a
coordinate at or above about 1.34e154, for every builtin and for the first
point of a gamma-scan raster; the message names the point), and a --delta
that is not a finite number > 0, and a number that does not parse (pi/0, or
a bare-dot coefficient such as .pi) or a table row whose exponents m, n are
not non-negative integers (a negative or boolean exponent), or a JSON boolean
given as a field value or a base-point coordinate (the message names the
token, the value or the row).  So does a Miller-Simon field based
at the origin, for run and for a raster through it, and --x0 given to
gamma-scan (the raster sets the base point).  gamma-scan makes the same curl
check at every raster point and also refuses a point where a value of its
row would not be finite (the field overflows there); the message names the
first such point in row-major order.  A --delta above d_max =
min(analytic_radius/2, 0.95 trusted radius) exits 2 after the WKB solve,
which d_max needs, and so does a --delta so small that |x|^2 underflows
on the Re P samples of the cutoff check (1e-170, say) or that a norm of the
first h's residual is not finite, the cutoff profile's scale
1/(r_out - r_in)^2 or its square overflowing (1e-80, 1e-160; the message
names h and delta, and no residuals.csv is written), as does an h whose
powers overflow at any delta (--h 1e60:1:2); the message names both
causes.  A sample count --n below 1 or a --region bound that is not
finite (gamma-scan, check-conditions), radii for check-conditions
outside 0 < --r-min < --r-max < inf, check-conditions numbers outside
0 < --epsilon1 < 1, 0 < --epsilon2 < 1/2, a finite
--C1-const and --C2-const and a finite --h > 0, and an --out that cannot be
written (a file in a missing directory, or for run a path at or below an
existing file) exit 2 before any work starts.  So does, before any verdict
is printed, a field that is not finite on a circle that check-conditions
samples (the message names the radius) or, |Im A|^2 included, at a point
of its --region grid (the message names the first such point).

Process: the first call of main in a process freezes the tracked heap
(gc.freeze), so interpreter shutdown no longer traverses the objects that
numpy and the package build at import.  Exit after main returns took 23-38
ms before and 6-10 ms after (fd-crosscheck, deep-solve and gamma-raster of
the benchmark, 10 fresh processes each, 2-core VM).  Later calls do not
freeze again; for an in-process caller, what is alive at the first call is
never examined by the cycle collector again, so a reference cycle through
it is never reclaimed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import fieldmodel, pseudomode, wkb
from .cseries import CurveDivisionError, SeriesDivisionError
from .fieldmodel import ConditionCheckConfig, check_C, check_H, compute_Q, make_field
from .pseudomode import (
    PhaseNotPositiveError,
    QuadratureResolutionError,
    fit_decay,
    make_pseudomode,
    residual_finite_difference,
    residual_series_exact,
)
from .wkb import DegenerateFieldError, TransportIdentityError, fit_growth, solve_wkb

CSV_HEADER = "# cmag-wkb v2"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GAMMA = 3
EXIT_IDENTITY = 4
EXIT_QUADRATURE = 5


class ConfigError(ValueError):
    pass


# ----------------------------------------------------------------------------
# value parsing (accepts pi-fractions and complex literals)
# ----------------------------------------------------------------------------

_PI_RE = re.compile(r"^([+-]?)(\d*\.?\d*)\s*pi(?:\s*/\s*(\d+\.?\d*))?$")


def parse_scalar(tok):
    tok = tok.strip().lower()
    m = _PI_RE.match(tok)
    try:
        if m:  # a bare-dot coefficient fails float(), a zero denominator the division
            sign = -1.0 if m.group(1) == "-" else 1.0
            coeff = float(m.group(2)) if m.group(2) else 1.0
            den = float(m.group(3)) if m.group(3) else 1.0
            return sign * coeff * math.pi / den
        return float(tok)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse number {tok!r}") from exc


def parse_point(point):
    """'x1,x2' (pi allowed), or a pair of such strings or of numbers."""
    parts = point.split(",") if isinstance(point, str) else point
    if len(parts) != 2 or any(isinstance(t, bool) for t in parts):
        raise ConfigError(f"point must be 'x1,x2' or [x1, x2], got {point!r}")
    return tuple(parse_scalar(t) if isinstance(t, str) else t for t in parts)


def parse_region(text):
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError(f"region must be 'x1min,x1max,x2min,x2max', got {text!r}")
    region = tuple(parse_scalar(p) for p in parts)
    if not all(math.isfinite(v) for v in region):
        raise ConfigError(f"--region {text}: the bounds must be finite numbers")
    return region


def parse_complex(text):
    s = str(text).strip().replace(" ", "").replace("I", "i")
    s = re.sub(r"(?<![\d.])i", "1i", s)
    s = s.replace("i", "j")
    try:
        return complex(s)
    except ValueError as exc:
        raise ConfigError(f"cannot parse complex number {text!r}") from exc


def parse_sweep(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"sweep must be 'h_max:h_min:count', got {text!r}")
    h_max, h_min = parse_scalar(parts[0]), parse_scalar(parts[1])
    try:
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"sweep count must be an integer, got {parts[2]!r}") from exc
    if not 0 < h_min < h_max < math.inf:  # a NaN fails too
        raise ConfigError("need 0 < h_min < h_max, both finite")
    if count < 2:
        raise ConfigError("need at least 2 sweep points")
    return np.geomspace(h_max, h_min, count)


# ----------------------------------------------------------------------------
# field construction from config
# ----------------------------------------------------------------------------

_FIELD_FLAGS = ("a", "b", "c", "alpha", "R")
_TABLES = ("R", "A1", "A2")


def _value(v):
    """A number, an [re, im] pair, or a string in pi or i form."""
    if isinstance(v, str):
        try:
            return parse_scalar(v)
        except ConfigError:
            return parse_complex(v)
    if isinstance(v, (int, float, complex)) and not isinstance(v, bool):
        return v
    if isinstance(v, list) and len(v) == 2 and all(type(t) in (int, float) for t in v):
        return complex(*v)
    raise ConfigError(f"expected a number, [re, im] or a string, got {v!r}")


def _table(rows):
    """[[m, n, value] or [m, n, re, im], ...] (or its JSON text) -> {(m, n): value}."""
    if isinstance(rows, str):
        try:
            rows = json.loads(rows)
        except ValueError as exc:
            raise ConfigError(f"coefficient table is not JSON: {exc}") from exc
    if not isinstance(rows, list):
        raise ConfigError(f"a coefficient table is a list of rows, got {rows!r}")
    table = {}
    for row in rows:
        if not (isinstance(row, list) and len(row) in (3, 4)
                and all(type(k) is int and k >= 0 for k in row[:2])):
            raise ConfigError("table rows are [m, n, value] or [m, n, re, im] with exponents "
                              f"m, n non-negative integers, got {row!r}")
        table[row[0], row[1]] = _value(row[2] if len(row) == 3 else row[2:])
    return table


def field_from_config(cfg, cap):
    """The field of a config {"builtin", "params", "x0"}; what is left out
    takes the builder's default, and every failure is a ConfigError."""
    kwargs = {k: (_table if k in _TABLES else _value)(v)
              for k, v in cfg["params"].items() if v is not None}
    if cfg.get("x0") is not None:
        kwargs["base_point"] = parse_point(cfg["x0"])
    try:
        return make_field(cfg["builtin"], kwargs, cap=cap)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _field_config(args):
    """The field request of a subcommand: --config (run only), typed flags over it."""
    cfg = {}
    if getattr(args, "config", None):
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read --config {args.config}: {exc}") from exc
        if not (isinstance(cfg, dict) and set(cfg) <= {"builtin", "params", "x0"}
                and isinstance(cfg.get("params", {}), dict)
                and isinstance(cfg.get("x0", ""), (str, list))):
            raise ConfigError(f"--config {args.config}: need one object with the keys "
                              f"builtin, params (an object) and x0")
    typed = {k: getattr(args, k) for k in _FIELD_FLAGS if getattr(args, k) is not None}
    return {"builtin": args.builtin or cfg.get("builtin", "oscillating"),
            "params": {**cfg.get("params", {}), **typed},
            "x0": args.x0 if args.x0 is not None else cfg.get("x0")}


def _field_record(field):
    """The config that rebuilds ``field``: complex values as [re, im], tables
    as [m, n, value] rows."""
    def value(v):
        if isinstance(v, dict):
            return [[m, n, value(c)] for (m, n), c in v.items()]
        return [v.real, v.imag] if isinstance(v, complex) else v

    return {"builtin": field.name, "params": {k: value(v) for k, v in field.params.items()},
            "x0": list(field.base_point)}


def _check_count(n):
    """Refuse a raster or sample count below one."""
    if n < 1:
        raise ConfigError(f"--n {n} must be >= 1")


def _check_out_file(path):
    """Refuse an --out file that cannot be written (None: no file is
    written), before any work starts."""
    if path is None:
        return
    out = Path(path)
    if out.is_dir():
        reason = "is a directory"
    elif not out.parent.is_dir():
        reason = f"no directory {out.parent}"
    elif not os.access(out.parent, os.W_OK) or (out.exists() and not os.access(out, os.W_OK)):
        reason = "not writable"
    else:
        return
    raise ConfigError(f"cannot write --out {path}: {reason}")


def _make_out_dir(path):
    """The run's --out directory, created before any work starts."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create --out {path}: {exc.strerror}") from exc
    if not os.access(out, os.W_OK):
        raise ConfigError(f"cannot write --out {path}: not writable")
    return out


def _check_order(N, cap):
    """Refuse a transport order that is negative or exceeds the degree budget."""
    if N < 0:
        raise ConfigError(f"transport order {N} must be >= 0")
    if N > wkb.max_transport_order(cap):
        raise ConfigError(f"--D {cap} too small for transport order {N}: "
                          f"need --D >= 3(N+2) = {3 * (N + 2)}")


# ----------------------------------------------------------------------------
# artifact writers
# ----------------------------------------------------------------------------

def write_residual_csv(path, reports):
    lines = [CSV_HEADER, "h,N_used,evaluator,u_norm,residual_norm,ratio,quad_points"]
    for r in reports:
        lines.append(
            f"{float(r.h)!r},{r.N_used},{r.evaluator},{float(r.u_norm)!r},"
            f"{float(r.residual_norm)!r},{float(r.ratio)!r},{r.quadrature_points}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_gamma_csv(path, xs, ys, report):
    """One row per raster point in row-major order, from the n x n arrays of
    ``report`` (``fieldmodel.gamma_scan``); each coordinate is formatted
    once, each value with ``repr``.  The file is written one x1-row at a
    time, so the text held at once is one row's, not the raster's."""
    x1, x2 = (list(map(repr, np.asarray(v).tolist())) for v in (xs, ys))
    columns = (report.Q1, report.Q2, report.Q3, report.det2, report.imA_norm)
    with open(path, "w") as fh:
        fh.write(f"{CSV_HEADER}\nx1,x2,in_gamma,Q1,Q2,Q3,det2,imA_norm\n")
        for i, u in enumerate(x1):
            points = (f"{u},{v}" for v in x2)
            flags = map(str, report.in_gamma[i].astype(int).tolist())
            values = (map(repr, c[i].tolist()) for c in columns)
            fh.write("".join(f"{','.join(row)}\n" for row in zip(points, flags, *values)))


def bound_fit_dict(bound):
    """The growth fit as strict JSON: sigma is null when too few norms fit it."""
    sigma = bound.sigma_fitted
    return {
        "m_fitted": bound.m_fitted, "per_j_norms": list(bound.per_j_norms),
        "polydisc": list(bound.polydisc), "sigma_fitted": sigma if math.isfinite(sigma) else None,
    }


def gamma_report_dict(rep):
    return {
        "Q1": rep.Q1, "Q2": rep.Q2, "Q3": rep.Q3, "det2": rep.det2,
        "imA_norm": rep.imA_norm, "B0": [rep.B0.real, rep.B0.imag],
        "dzbarB": [rep.dzbarB.real, rep.dzbarB.imag],
        "in_gamma": rep.in_gamma, "failed_conditions": list(rep.failed_conditions),
    }


# ----------------------------------------------------------------------------
# h-sweep
# ----------------------------------------------------------------------------

def run_sweep(pm, hs):
    """The reports of the sweep in order, up to the first h whose residual
    grid is refused or does not fit in memory, and that refusal or
    MemoryError (None when every h passed)."""
    # residual_series_exact is looked up by name on each call:
    # perfbench/child.py times the first call with a module-attribute hook
    # that puts the original back, which a reference bound earlier would miss
    reports = []
    try:
        for h in hs:
            reports.append(residual_series_exact(pm, h))
    except (QuadratureResolutionError, MemoryError) as exc:
        return reports, exc
    return reports, None


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def cmd_run(args):
    n_solve = max(args.N, args.jmax) if args.adaptive else args.N
    _check_order(args.N, args.D)
    _check_order(n_solve, args.D)
    if args.evaluator == "both" and args.grid_n < 16:
        raise ConfigError(f"--grid-n {args.grid_n} too small: need >= 16")
    cap = args.D
    field = field_from_config(_field_config(args), cap)
    hs = parse_sweep(args.h)
    if args.delta is not None and not 0 < args.delta < math.inf:  # a NaN fails too
        raise ConfigError(f"--delta {args.delta:g}: need 0 < delta < inf")
    out = _make_out_dir(args.out)
    # the field block replays through --config: defaults filled in, values exact
    field_cfg = _field_record(field)
    (out / "config.json").write_text(json.dumps({
        "field": field_cfg, "degree_cap": cap, "N": args.N, "adaptive": bool(args.adaptive),
        "h_max": float(hs[0]), "h_min": float(hs[-1]), "h_count": len(hs),
        "delta_override": args.delta, "evaluator": args.evaluator, "grid_n": args.grid_n,
        "out_dir": str(out),
    }, indent=1, sort_keys=True))

    report = compute_Q(field)
    (out / "gamma_report.json").write_text(json.dumps(gamma_report_dict(report), indent=1, sort_keys=True))
    if not report.in_gamma:
        print(f"base point {field.base_point} rejected: {', '.join(report.failed_conditions)}")
        return EXIT_GAMMA

    sol = solve_wkb(field, N=n_solve)
    (out / "wkb_solution.json").write_text(sol.to_json())
    print(f"WKB solve ok: mu = {sol.mu}, N = {sol.N}, "
          f"worst identity residual = {max(sol.residual_maxima.values()):.3e}")

    bound = fit_growth(sol)
    (out / "bound_fit.json").write_text(json.dumps(bound_fit_dict(bound), indent=1, sort_keys=True))

    pm = make_pseudomode(field, sol, N=args.N,
                         m_growth=bound.m_fitted if args.adaptive else None,
                         delta_override=args.delta)
    reports, refusal = run_sweep(pm, hs)
    if refusal is None and args.evaluator == "both":  # one FD cross-check, at the middle h
        try:
            reports.append(residual_finite_difference(pm, float(hs[len(hs) // 2]),
                                                      n=args.grid_n))
        except MemoryError as exc:
            refusal = exc
    write_residual_csv(out / "residuals.csv", reports)
    if refusal is not None:  # the rows that finished are kept; exit 5 or 2
        raise refusal

    series_reports = [r for r in reports if r.evaluator == "series_exact"]
    fits = {}
    for model in ("power", "stretched"):
        try:
            f = fit_decay(series_reports, model=model)
            fits[model] = {"slope": f.slope, "constant": f.constant, "r_squared": f.r_squared}
        except ValueError as exc:
            fits[model] = {"error": str(exc)}
    (out / "decay_fit.json").write_text(json.dumps(fits, indent=1, sort_keys=True))
    if "slope" in fits["power"]:
        print(f"sweep done: {len(series_reports)} points, "
              f"power-law slope = {fits['power']['slope']:.3f}")
    else:
        print(f"sweep done: {len(series_reports)} points, "
              f"no decay fit ({fits['power']['error']})")
    return EXIT_OK


def cmd_gamma_scan(args):
    region = parse_region(args.region)
    if args.x0 is not None:
        raise ConfigError("gamma-scan bases the field at the raster's first point; "
                          "--x0 is not taken")
    _check_count(args.n)
    _check_out_file(args.out)
    cfg = _field_config(args)
    # one field, based at the raster's first point, serves every point.
    # field_from_config is called by its module name: perfbench/child.py
    # hooks that attribute to end set-up
    field = field_from_config({**cfg, "x0": (region[0], region[2])}, cap=2)
    try:
        xs, ys, report = fieldmodel.gamma_scan(field, region, args.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    write_gamma_csv(args.out, xs, ys, report)
    members = int(np.count_nonzero(report.in_gamma))
    print(f"gamma-scan: {members} member points of {args.n * args.n}; wrote {args.out}")
    return EXIT_OK


def cmd_check_conditions(args):
    _check_count(args.n)
    if not 0 < args.r_min < args.r_max < math.inf:  # a NaN fails too
        raise ConfigError(f"--r-min {args.r_min:g} and --r-max {args.r_max:g}: "
                          f"need 0 < r_min < r_max, both finite")
    region = parse_region(args.region)
    cfgs = [(which, ConditionCheckConfig(epsilon=eps, C_const=cconst, sample_region=region,
                                         sample_density=args.n, h=args.h))
            for which, eps, cconst in (("C1", args.epsilon1, args.C1_const),
                                       ("C2", args.epsilon2, args.C2_const))]
    for which, cfg in cfgs:
        try:
            cfg.validate(which)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    _check_out_file(args.out)
    field = field_from_config(_field_config(args), cap=4)
    # the trends first: a field that is not finite on a circle prints no verdict
    try:
        trends = check_H(field, np.geomspace(args.r_min, args.r_max, 8))
    except ValueError as exc:
        raise ConfigError(f"{exc} (--r-min {args.r_min:g}, --r-max {args.r_max:g})") from exc
    # every verdict before the first is printed: a field that is not finite
    # in the sampled region prints none
    try:
        verdicts = [check_C(field, cfg, which=which) for which, cfg in cfgs]
    except ValueError as exc:
        raise ConfigError(f"{exc} (--region {args.region})") from exc
    lines = [CSV_HEADER, "check,sign,passed,min_slack,at"]
    for best in verdicts:
        lines.append(f"{best.which},{best.sign},{int(best.passed)},{best.min_slack!r},"
                     f"\"{best.location}\"")
        print(f"{best.which}: {'pass' if best.passed else 'FAIL'} (sign {best.sign}, "
              f"min slack {best.min_slack:.4g} at {best.location})")
    for hyp in ("H1", "H2", "H3"):
        t = trends[hyp]
        extra = f", sign {t.sign}" if hyp == "H1" and t.sign else ""
        lines.append(f"{hyp},,{int(t.diverging)},{t.growth_exponent!r},")
        print(f"{hyp}: {'diverging' if t.diverging else 'not diverging'} "
              f"(growth exponent {t.growth_exponent:.3g}{extra})")
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_bound_fit(args):
    _check_order(args.jmax, args.D)
    _check_out_file(args.out)
    field = field_from_config(_field_config(args), cap=args.D)
    sol = solve_wkb(field, N=args.jmax)
    bound = fit_growth(sol)
    text = json.dumps({**bound_fit_dict(bound), "bound_holds": bound.bound_holds()},
                      indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text)
    print(text)
    return EXIT_OK


# ----------------------------------------------------------------------------
# argument plumbing
# ----------------------------------------------------------------------------

def _add_field_args(p):
    # no defaults here: a flag that is not typed leaves the config file's
    # entry or the builder's default in place
    p.add_argument("--builtin", choices=sorted(fieldmodel.BUILTIN_FIELDS),
                   help="field (default oscillating)")
    p.add_argument("--a", help="polynomial a (complex, e.g. 0.3+i)")
    p.add_argument("--b", help="polynomial b (complex)")
    p.add_argument("--c", help="complex parameter (polynomial c, miller_simon c, exponential c)")
    p.add_argument("--alpha", help="miller_simon decay exponent")
    p.add_argument("--R", help="JSON table [[m,n,coeff],...] for the polynomial tail")
    p.add_argument("--x0", help="base point, e.g. 'pi/3,-pi/2'")


def build_parser():
    ap = argparse.ArgumentParser(prog="cmag-wkb", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="full pipeline at one base point")
    _add_field_args(p)
    p.add_argument("--config", default=None, help="JSON field config (flags override)")
    p.add_argument("--N", type=int, default=1)
    p.add_argument("--jmax", type=int, default=3, help="transport order computed for adaptive runs")
    p.add_argument("--adaptive", action="store_true", help="use N(h) = floor((e m h)^(-1/7))")
    p.add_argument("--D", type=int, default=24, help="series degree cap")
    p.add_argument("--h", default="0.1:0.003:8", help="geometric sweep h_max:h_min:count")
    p.add_argument("--delta", type=float, default=None, help="cutoff radius override")
    p.add_argument("--evaluator", choices=("series", "both"), default="series")
    p.add_argument("--grid-n", type=int, default=512)
    p.add_argument("--out", default="out")

    p = sub.add_parser("gamma-scan", help="membership raster over a rectangle")
    _add_field_args(p)
    p.add_argument("--region", required=True, help="'x1min,x1max,x2min,x2max' (pi allowed)")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--out", default="raster.csv")

    p = sub.add_parser("check-conditions", help="sampled (C1)/(C2) and (H1)-(H3) checks")
    _add_field_args(p)
    p.add_argument("--epsilon1", type=float, default=0.9)
    p.add_argument("--epsilon2", type=float, default=0.45)
    p.add_argument("--C1-const", type=float, default=1.0, dest="C1_const")
    p.add_argument("--C2-const", type=float, default=0.0, dest="C2_const")
    p.add_argument("--h", type=float, default=1.0)
    p.add_argument("--region", default="-3,3,-3,3")
    p.add_argument("--n", type=int, default=96)
    p.add_argument("--r-min", type=float, default=1.0)
    p.add_argument("--r-max", type=float, default=8.0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("bound-fit", help="amplitude growth diagnostics")
    _add_field_args(p)
    p.add_argument("--jmax", type=int, default=6)
    p.add_argument("--D", type=int, default=24)
    p.add_argument("--out", default=None)
    return ap


_COMMANDS = {
    "run": cmd_run,
    "gamma-scan": cmd_gamma_scan,
    "check-conditions": cmd_check_conditions,
    "bound-fit": cmd_bound_fit,
}


def main(argv=None):
    """The console-script entry point: parse ``argv``, run the subcommand,
    map each documented failure to its exit code and one stderr line.

    The first call in a process freezes the tracked heap (``gc.freeze``):
    the object graph that numpy and the package build at import lives until
    exit anyway, and in the permanent generation no later collection, the
    one at interpreter shutdown included, traverses it.  Exit after main
    returns took 23-38 ms before and 6-10 ms after (the module docstring
    says where).  Later calls do not freeze again, so the cyclic garbage
    an in-process caller makes between calls stays collectable; what is
    alive at the first call is never examined by the cycle collector again
    (reference counting still frees it, but a cycle through it is never
    reclaimed).  There is no collection before the freeze (the heap at
    import holds no cyclic garbage) and no unfreeze after the command (it
    would hand the traversal back to shutdown).
    """
    if not gc.get_freeze_count():
        gc.freeze()
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, pseudomode.CutoffRadiusError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegenerateFieldError, SeriesDivisionError) as exc:
        print(f"admissibility rejection: {exc}", file=sys.stderr)
        return EXIT_GAMMA
    except (TransportIdentityError, CurveDivisionError, PhaseNotPositiveError,
            pseudomode.GaugeConsistencyError) as exc:
        print(f"internal identity failure: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except QuadratureResolutionError as exc:
        print(f"quadrature refusal: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except MemoryError as exc:
        print(f"config error: out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
