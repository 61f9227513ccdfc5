"""One workload process: runs ``cmag_wkb.cli.main`` on the given argv.

    python3 perfbench/child.py META_JSON plain|trace CLI_ARGV...

``plain`` installs a single hook: the first call of the main-loop function
records a CLOCK_MONOTONIC timestamp (set-up ends there). The main loop
starts at the first ``residual_series_exact`` for ``run``, the first
``transport_step`` for ``bound-fit`` and the first per-point field build
(``field_from_config``) for ``gamma-scan``. It also keeps the worst identity
residual of the WKB solve, read off the returned solution, for the
correctness gate. ``trace`` wraps every layer (spans.Tracer) and writes the
spans next to META_JSON when the CLI returns.
"""

import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

MAIN_LOOP = {
    "run": ("cli", "residual_series_exact"),
    "bound-fit": ("wkb", "transport_step"),
    "gamma-scan": ("cli", "field_from_config"),
}


def monotonic_ns():
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def hook_first_call(module, attr, meta):
    original = getattr(module, attr)

    def first_call(*args, **kwargs):
        meta["main_loop_ns"] = monotonic_ns()
        setattr(module, attr, original)
        return original(*args, **kwargs)

    setattr(module, attr, first_call)


def keep_worst_identity(cli, meta):
    solve = cli.solve_wkb

    def solve_and_keep(*args, **kwargs):
        sol = solve(*args, **kwargs)
        meta["worst_identity"] = max(sol.residual_maxima.values())
        return sol

    cli.solve_wkb = solve_and_keep


def main():
    meta_path, mode, *argv = sys.argv[1:]
    meta = {"mode": mode}
    tracer = None
    from cmag_wkb import cli, wkb

    if mode == "trace":
        from spans import Tracer

        tracer = Tracer(run_id=os.path.basename(os.path.dirname(meta_path)))
        tracer.install()
    else:
        layer, attr = MAIN_LOOP[argv[0]]
        hook_first_call({"cli": cli, "wkb": wkb}[layer], attr, meta)
    keep_worst_identity(cli, meta)
    code = 1
    try:
        code = cli.main(argv)
    finally:
        meta["exit_code"] = code
        if tracer is not None:
            tracer.dump(meta_path[: -len(".json")] + ".spans.json")
        with open(meta_path, "w") as fh:
            json.dump(meta, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
