"""CLI parsing, artifact emission, determinism, and exit codes."""

import gc
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from cmag_wkb import cli, fieldmodel
from cmag_wkb.cli import (
    CSV_HEADER,
    EXIT_CONFIG,
    EXIT_GAMMA,
    EXIT_IDENTITY,
    EXIT_OK,
    EXIT_QUADRATURE,
    ConfigError,
    main,
    parse_complex,
    parse_point,
    parse_region,
    parse_scalar,
    parse_sweep,
)


# ----------------------------------------------------------------------------
# value parsing
# ----------------------------------------------------------------------------

def test_parse_scalar_pi_fractions():
    assert parse_scalar("pi/3") == pytest.approx(np.pi / 3)
    assert parse_scalar("-pi/2") == pytest.approx(-np.pi / 2)
    assert parse_scalar("2pi") == pytest.approx(2 * np.pi)
    assert parse_scalar("2pi/3") == pytest.approx(2 * np.pi / 3)
    assert parse_scalar("0.75") == 0.75
    assert parse_scalar("-1.5e-2") == -0.015
    for tok in ("pi/0", "pi/0.0", ".pi", "-.pi/2"):
        with pytest.raises(ConfigError, match="cannot parse number"):
            parse_scalar(tok)


def test_parse_point_and_region():
    p = parse_point("pi/3,-pi/2")
    assert p == pytest.approx((np.pi / 3, -np.pi / 2))
    r = parse_region("-2pi,2pi,-1,1")
    assert r == pytest.approx((-2 * np.pi, 2 * np.pi, -1.0, 1.0))
    with pytest.raises(ConfigError):
        parse_point("1.0")


def test_parse_complex_forms():
    assert parse_complex("1+2i") == 1 + 2j
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("0.3+1i") == 0.3 + 1j
    assert parse_complex("4") == 4 + 0j
    assert parse_complex("2i") == 2j
    with pytest.raises(ConfigError):
        parse_complex("one")


def test_parse_sweep_geometric():
    hs = parse_sweep("0.1:0.003:8")
    assert len(hs) == 8
    assert hs[0] == pytest.approx(0.1) and hs[-1] == pytest.approx(0.003)
    ratios = hs[1:] / hs[:-1]
    assert np.allclose(ratios, ratios[0])
    with pytest.raises(ConfigError):
        parse_sweep("0.003:0.1:8")
    # a count that is not an integer, and an infinite h_max: config errors
    # (exit 2), not a ValueError traceback or an Infinity in config.json
    with pytest.raises(ConfigError, match="integer"):
        parse_sweep("0.1:0.05:2.5")
    with pytest.raises(ConfigError, match="finite"):
        parse_sweep("inf:0.05:3")


# ----------------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------------

def test_run_polynomial_produces_artifacts(tmp_path):
    out = tmp_path / "run"
    code = main([
        "run", "--builtin", "polynomial", "--a", "8", "--b", "0.3+i", "--c", "1",
        "--x0", "0,0", "--N", "1", "--h", "0.05:0.02:4", "--out", str(out),
    ])
    assert code == EXIT_OK
    for name in ("gamma_report.json", "wkb_solution.json", "residuals.csv",
                 "bound_fit.json", "decay_fit.json"):
        assert (out / name).exists(), name
    lines = (out / "residuals.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1].startswith("h,N_used,evaluator")
    assert len(lines) == 2 + 4
    rep = json.loads((out / "gamma_report.json").read_text())
    assert rep["in_gamma"] is True


def test_run_determinism_byte_identical(tmp_path):
    args = ["run", "--builtin", "polynomial", "--a", "8", "--b", "0.3+i",
            "--c", "1", "--x0", "0,0", "--N", "1", "--h", "0.05:0.02:4"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    for name in ("residuals.csv", "wkb_solution.json", "decay_fit.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_run_rejects_inadmissible_point(tmp_path):
    # cos(x1) = 0 excludes the point: exit code 3 with the failed condition
    code = main([
        "run", "--builtin", "oscillating", "--x0", "pi/2,-pi/2",
        "--out", str(tmp_path / "rej"),
    ])
    assert code == EXIT_GAMMA
    rep = json.loads((tmp_path / "rej" / "gamma_report.json").read_text())
    assert "dzbar_B_zero" in rep["failed_conditions"]


def test_run_config_error_exit_code(tmp_path):
    assert main(["run", "--builtin", "polynomial", "--x0", "bad-point",
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    assert main(["run", "--builtin", "polynomial", "--h", "nonsense",
                 "--x0", "0,0", "--out", str(tmp_path / "y")]) == EXIT_CONFIG
    # transport order beyond the degree budget --D >= 3(N+2), negative order,
    # and a finite-difference grid below 16 points: refused before any work
    assert main(["run", "--builtin", "polynomial", "--N", "7",
                 "--out", str(tmp_path / "n7")]) == EXIT_CONFIG
    assert main(["run", "--builtin", "polynomial", "--N", "-1",
                 "--out", str(tmp_path / "neg")]) == EXIT_CONFIG
    assert main(["bound-fit", "--builtin", "polynomial", "--jmax", "7"]) == EXIT_CONFIG
    assert main(["run", "--builtin", "polynomial", "--evaluator", "both", "--grid-n", "8",
                 "--out", str(tmp_path / "fd")]) == EXIT_CONFIG
    assert not any((tmp_path / d).exists() for d in ("n7", "neg", "fd"))


_OVERFLOW = "|x0|^2 at base point {} is not finite"


@pytest.mark.parametrize("argv, named", [
    (["run", "--x0", "nan,0"], "curl A at base point"),
    (["run", "--builtin", "polynomial", "--a", "nan"], "curl A at base point"),
    (["bound-fit", "--x0", "nan,-pi/2"], "curl A at base point"),
    (["gamma-scan", "--region=0,nan,0,1", "--n", "3"], "--region 0,nan,0,1"),
    (["run", "--builtin", "polynomial", "--x0", "1e200,0"], _OVERFLOW.format("(1e+200, 0.0)")),
    (["bound-fit", "--builtin", "polynomial", "--x0", "1e200,0", "--jmax", "1", "--D", "9"],
     _OVERFLOW.format("(1e+200, 0.0)")),
    (["check-conditions", "--builtin", "polynomial", "--x0", "1e200,0", "--n", "4"],
     _OVERFLOW.format("(1e+200, 0.0)")),
    (["gamma-scan", "--builtin", "polynomial", "--region=-1e200,0,0,1", "--n", "3"],
     _OVERFLOW.format("(-1e+200, 0.0)")),
    (["run", "--builtin", "oscillating", "--x0=2e154,0"], _OVERFLOW.format("(2e+154, 0.0)")),
    (["run", "--builtin", "exponential", "--x0", "1e100,0"], "curl A at base point (1e+100, 0.0)"),
    (["bound-fit", "--builtin", "exponential", "--x0", "30,0"], "curl A at base point (30.0, 0.0)"),
    (["check-conditions", "--builtin", "exponential", "--x0", "30,0", "--n", "4"],
     "curl A at base point (30.0, 0.0)"),
    (["run", "--builtin", "miller_simon", "--alpha", "nan"], "curl A at base point (1.0, 0.5)"),
], ids=["run-x0", "run-a", "bound-fit-x0", "gamma-scan-region", "run-x0-overflow",
        "bound-fit-x0-overflow", "check-conditions-x0-overflow", "gamma-scan-region-overflow",
        "run-oscillating-x0-overflow", "run-exponential-field-overflow",
        "bound-fit-exponential-field-overflow", "check-conditions-exponential-field-overflow",
        "run-miller-simon-alpha-nan"])
def test_nan_field_data_is_a_config_error(tmp_path, capsys, argv, named):
    # a NaN in the field's data fails the curl check at the base point, and a
    # NaN region bound is refused as such: not an admissibility rejection (3),
    # an identity failure (4) or a NaN raster (0); so is a base point whose
    # |x0|^2 overflows (from a coordinate of about 1.34e154 on, for every
    # builder, the oscillating one included); numpy warns of none of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + ["--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {named}") and err.count("\n") == 1
    assert "Traceback" not in err


def test_gamma_scan_csv(tmp_path):
    out = tmp_path / "raster.csv"
    code = main([
        "gamma-scan", "--builtin", "oscillating",
        "--region=-pi,pi,-pi,pi", "--n", "17", "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "x1,x2,in_gamma,Q1,Q2,Q3,det2,imA_norm"
    assert len(lines) == 2 + 17 * 17
    # the x2 = -pi/2 grid line exists in this raster; members only there
    members = [ln for ln in lines[2:] if ln.split(",")[2] == "1"]
    assert members
    for ln in members:
        x2 = float(ln.split(",")[1])
        assert abs(x2 + np.pi / 2) < 1e-12




def test_gamma_csv_writer_memory_grows_with_the_row_not_the_raster(tmp_path):
    # doubling n doubles a row and quadruples the raster: a writer that holds
    # the whole file's text peaks about 4x higher at 257^2 than at 129^2, one
    # that writes row by row about 2x
    peaks = []
    for n in (129, 257):
        rng = np.random.default_rng(n)
        report = types.SimpleNamespace(
            in_gamma=rng.random((n, n)) < 0.5,
            **{k: rng.standard_normal((n, n)) for k in ("Q1", "Q2", "Q3", "det2", "imA_norm")})
        out = tmp_path / f"raster{n}.csv"
        tracemalloc.start()
        try:
            cli.write_gamma_csv(out, np.linspace(-1.0, 1.0, n), np.linspace(-2.0, 2.0, n), report)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(out.read_text().splitlines()) == 2 + n * n
    assert peaks[1] / peaks[0] < 3.0

def test_check_conditions_runs(tmp_path, capsys):
    out = tmp_path / "conds.csv"
    code = main([
        "check-conditions", "--builtin", "exponential", "--c", "0.4",
        "--h", "1.0", "--region=-0.8,0.8,-0.8,0.8", "--out", str(out),
    ])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    assert "C2: pass" in text
    assert "C1: FAIL" in text
    assert "H2: diverging" in text
    assert "H1: not diverging" in text
    assert out.exists()


def test_bound_fit_emits_json(tmp_path, capsys):
    out = tmp_path / "bound.json"
    code = main([
        "bound-fit", "--builtin", "oscillating", "--x0", "pi/3,-pi/2",
        "--jmax", "4", "--out", str(out),
    ])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["bound_holds"] is True
    assert len(payload["per_j_norms"]) == 5
    assert payload["sigma_fitted"] <= 7.0


def test_bound_fit_off_origin_solves(tmp_path):
    # the transport and compatibility floors admit the roundoff of the
    # construction: the degree-0 residual here is one ulp of the a_0 scale
    out = tmp_path / "bound.json"
    assert main(["bound-fit", "--builtin", "polynomial", "--a", "8", "--b", "0.3+i", "--c", "1",
                 "--x0=-1.8,-1.6", "--D", "24", "--jmax", "5", "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["bound_holds"] is True


def test_run_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "builtin": "polynomial",
        "params": {"a": "8", "b": "0.3+i", "c": "1"},
        "x0": [0.0, 0.0],
    }))
    out = tmp_path / "cfgrun"
    code = main(["run", "--config", str(cfg), "--N", "1",
                 "--h", "0.05:0.02:4", "--out", str(out)])
    assert code == EXIT_OK
    sol = json.loads((out / "wkb_solution.json").read_text())
    import numpy as np
    assert float.fromhex(sol["mu"][0]) == 8.0  # the file's field was used


def test_run_user_polynomial_field_from_config(tmp_path):
    # coefficient tables for A1, A2 (here reproducing B = 8 + 0.3 x1 + ...)
    cfg = tmp_path / "user.json"
    cfg.write_text(json.dumps({
        "builtin": "user_polynomial",
        "params": {
            "A1": [],
            "A2": [[1, 0, 8.0, 0.0], [2, 0, 0.15, 0.5], [1, 1, 1.0, 0.0]],
        },
        "x0": [0.0, 0.0],
    }))
    out = tmp_path / "userrun"
    code = main(["run", "--config", str(cfg), "--N", "1",
                 "--h", "0.05:0.02:4", "--out", str(out)])
    assert code == EXIT_OK
    rep = json.loads((out / "gamma_report.json").read_text())
    assert rep["in_gamma"] is True


def test_run_takes_R_as_json_text(tmp_path):
    rows = [[6, 0, 1.0], [0, 6, 1.0]]
    assert main(_RUN + ["--R", json.dumps(rows), "--out", str(tmp_path / "o")]) == EXIT_OK
    assert json.loads((tmp_path / "o" / "config.json").read_text())["field"]["params"]["R"] == rows


def test_an_argparse_error_exits_2_with_its_usage_block(capsys):
    assert main(["run", "--N", "x"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("usage: cmag-wkb run")
    assert err.rstrip().endswith("error: argument --N: invalid int value: 'x'")
    assert "Traceback" not in err


def test_a_gauge_gap_below_the_degree_of_A_names_the_cap(tmp_path, capsys):
    # the default polynomial field's A_2 has degree 7: at --D 6 its Taylor
    # pair drops that tail, which the ring check sees; the refusal (exit 4)
    # says that A~ is truncated at the cap and how to close the gap
    code = main(["run", "--builtin", "polynomial", "--D", "6", "--N", "0", "--h", "0.1:0.05:2",
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_IDENTITY
    err = capsys.readouterr().err
    assert "potential A" in err and "truncated at degree 6" in err and "larger --D" in err


def test_run_refuses_delta_beyond_d_max(tmp_path, capsys):
    # d_max = min(analytic_radius/2, 0.95 trusted radius) = 0.647 here; the
    # series are not trusted beyond it.  At the other end, |x|^2 underflows
    # on the samples of a delta of 1e-200, so Re P / |x|^2 is not finite; at
    # 1e-160 it is still finite, but the cutoff profile's scale
    # 1/(r_out - r_in)^2 = 4/delta^2 overflows, and at 1e-80 the square of
    # the cutoff term does: the residual norm of the first h is not finite
    for delta, prefix, reason in (
            ("5", "delta override", "d_max"), ("1e-200", "delta override", "not finite"),
            ("1e-160", "cutoff radius delta = 1e-160 at h = 0.1", "norms not finite"),
            ("1e-80", "cutoff radius delta = 1e-80 at h = 0.1", "norms not finite")):
        out = tmp_path / delta
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--builtin", "polynomial", "--N", "1", "--h", "0.1:0.05:2",
                         "--delta", delta, "--out", str(out)])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {prefix}") and err.count("\n") == 1
        assert reason in err
        assert not (out / "residuals.csv").exists()
    # no --delta, so delta = d_max: an h of 1e60 overflows its own powers in
    # the residual, and the refusal names that cause beside the thin ring
    out = tmp_path / "large_h"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--builtin", "polynomial", "--N", "1", "--h", "1e60:1:2",
                     "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cutoff radius delta = 0.647238 at h = 1e+60: "
                          "norms not finite") and err.count("\n") == 1
    assert "cutoff radius is too small" in err and "h so large its powers overflow" in err
    assert not (out / "residuals.csv").exists()


@pytest.mark.parametrize("delta", ["nan", "0", "-1", "inf"])
def test_run_refuses_a_delta_outside_zero_to_inf_before_any_work(tmp_path, capsys, delta):
    # only the upper bound d_max needs the solve: nothing is written
    out = tmp_path / "d"
    code = main(["run", "--builtin", "polynomial", "--N", "1", "--h", "0.1:0.05:2",
                 "--delta", delta, "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: --delta") and "Traceback" not in err
    assert not out.exists()


def test_run_phase_positivity_failure_exit_code(tmp_path):
    # admissible per the (Q1,Q2,Q3) report, but the assembled phase is
    # indefinite: internal identity failure (exit 4)
    code = main(["run", "--builtin", "oscillating", "--x0", "pi/3,-pi/2",
                 "--N", "1", "--out", str(tmp_path / "ph")])
    assert code == 4


@pytest.mark.parametrize("N", ["0", "1"])
def test_run_quadrature_refusal_exit_5(tmp_path, capsys, N):
    # a = 400 narrows the Gaussian below the smallest residual grid, at any
    # transport order
    code = main(["run", "--builtin", "polynomial", "--a", "400", "--N", N,
                 "--h", "0.1:0.05:2", "--out", str(tmp_path / "q")])
    assert code == EXIT_QUADRATURE
    err = capsys.readouterr().err
    assert "quadrature refusal: residual quadrature unresolved" in err
    # the message states the measured mismatch, not a retry no flag can reach
    assert "|I_2n - I_n|/I_2n = " in err and "retry" not in err
    assert "Traceback" not in err


@pytest.mark.parametrize("N", ["0", "1"])
def test_run_refusal_keeps_the_finished_rows(tmp_path, capsys, N):
    # a = 100: h = 0.1 is resolved and h = 0.05 is refused; the row of 0.1 is
    # written before the exit, and nothing of the h after the refused one
    out = tmp_path / "q"
    code = main(["run", "--builtin", "polynomial", "--a", "100", "--N", N,
                 "--h", "0.1:0.025:3", "--out", str(out)])
    assert code == EXIT_QUADRATURE
    assert "unresolved at h=0.05:" in capsys.readouterr().err
    lines = (out / "residuals.csv").read_text().splitlines()
    assert lines[0] == CSV_HEADER and len(lines) == 3
    assert lines[2].startswith(f"0.1,{N},series_exact,")


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"{path.name} holds the non-JSON token {token}")

    return json.loads(path.read_text(), parse_constant=refuse)


def test_bound_fit_json_is_strict_when_sigma_is_not_fitted(tmp_path):
    # three norms are too few for the sigma fit: null, not NaN (the run of
    # test_run_config_json_field_block_replays checks the same in run)
    out = tmp_path / "bound.json"
    assert main(["bound-fit", "--builtin", "oscillating", "--x0", "pi/3,-pi/2",
                 "--jmax", "2", "--D", "12", "--out", str(out)]) == EXIT_OK
    assert _strict_json(out)["sigma_fitted"] is None


def test_run_config_json_field_block_replays(tmp_path):
    # fd-crosscheck's seed-0 run, then the field block of its config.json fed
    # back through --config: the same field, bit for bit
    rest = ["--N", "1", "--h", "0.1:0.05:2", "--evaluator", "both", "--grid-n", "192"]
    out1, out2 = tmp_path / "first", tmp_path / "replay"
    assert main(["run", "--builtin", "polynomial", "--a", "1", "--b", "i", "--c", "1",
                 "--x0", "0,0", *rest, "--out", str(out1)]) == EXIT_OK
    field = json.loads((out1 / "config.json").read_text())["field"]
    cfg = tmp_path / "field.json"
    cfg.write_text(json.dumps(field))
    assert main(["run", "--config", str(cfg), *rest, "--out", str(out2)]) == EXIT_OK
    assert (out1 / "residuals.csv").read_bytes() == (out2 / "residuals.csv").read_bytes()
    assert json.loads((out2 / "config.json").read_text())["field"] == field
    # two per-j norms leave sigma unfitted: strict JSON writes null
    assert _strict_json(out1 / "bound_fit.json")["sigma_fitted"] is None
    # the builder's defaults are written out, the tail R included
    assert field["params"]["R"] == [[6, 0, 1.0], [4, 2, 3.0], [2, 4, 3.0], [0, 6, 1.0]]


@pytest.mark.parametrize("params", [{"a": [1]}, {"a": {}}, {"R": {}}, {"R": [[6, 0]]}])
def test_run_malformed_config_values_exit_2(tmp_path, capsys, params):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"builtin": "polynomial", "params": params}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("builtin, params, named", [
    ("polynomial", {"a": [1]}, "[1]"),
    ("polynomial", {"a": {}}, "{}"),
    ("polynomial", {"R": {}}, "a list of rows"),
    ("polynomial", {"R": [[6, 0]]}, "[6, 0]"),
    # an exponent that is not a non-negative integer is refused, naming its row
    ("polynomial", {"R": [[-1, 0, 1]]}, "[-1, 0, 1]"),
    ("polynomial", {"R": [[0, True, 1]]}, "[0, True, 1]"),
    ("user_polynomial", {"A1": [[0, 1, 1.0]], "A2": [[-1, 0, 1]]}, "[-1, 0, 1]"),
    # a JSON boolean is not a number: neither a value, a part of a pair, nor
    # a table coefficient
    ("polynomial", {"a": True}, "True"),
    ("polynomial", {"b": [False, True]}, "[False, True]"),
    ("polynomial", {"R": [[0, 0, True]]}, "True"),
])
def test_run_malformed_config_value_is_named(tmp_path, capsys, builtin, params, named):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"builtin": builtin, "params": params}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == 1 and named in err
    assert not (tmp_path / "o").exists()


def test_run_boolean_config_base_point_is_named(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"builtin": "polynomial", "x0": [True, False]}))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert "[True, False]" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_field_flag_the_builtin_does_not_take_exits_2(tmp_path, capsys):
    assert main(["run", "--builtin", "oscillating", "--a", "2",
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert main(["bound-fit", "--builtin", "polynomial", "--alpha", "2"]) == EXIT_CONFIG
    assert main(["gamma-scan", "--x0", "5,5", "--region=-1,1,-1,1", "--n", "3",
                 "--out", str(tmp_path / "r.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "'a'" in err and "'alpha'" in err and "--x0" in err and "Traceback" not in err
    assert not (tmp_path / "r.csv").exists()


def test_miller_simon_base_point_from_the_builder(tmp_path, capsys):
    # the origin is refused with the builder's message, for a run and for a
    # raster through it; without --x0 the builder's default point is used
    assert main(["run", "--builtin", "miller_simon", "--x0", "0,0",
                 "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert main(["gamma-scan", "--builtin", "miller_simon", "--region=-1,1,-1,1",
                 "--n", "3", "--out", str(tmp_path / "r.csv")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.count("avoid the origin") == 2 and "Traceback" not in err
    assert main(["check-conditions", "--builtin", "miller_simon", "--n", "16"]) == EXIT_OK


def test_check_conditions_samples_miller_simon_at_the_origin(capsys):
    # an odd --n puts the origin on the grid of the symmetric default region,
    # where B = 2c is read from A_jac
    assert main(["check-conditions", "--builtin", "miller_simon", "--n", "17"]) == EXIT_OK
    assert "Traceback" not in capsys.readouterr().err


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 7.28 TiB for an array")


def test_run_out_of_memory_exits_2_and_keeps_the_series_rows(tmp_path, capsys, monkeypatch):
    # an FD grid the machine cannot allocate: one config error line, and the
    # two series rows of the sweep are written first
    monkeypatch.setattr(cli, "residual_finite_difference", _out_of_memory)
    out = tmp_path / "o"
    code = main(["run", "--builtin", "polynomial", "--N", "1", "--h", "0.1:0.05:2",
                 "--evaluator", "both", "--grid-n", "1000000", "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.splitlines() == ["config error: out of memory: Unable to allocate 7.28 TiB "
                                "for an array"]
    lines = (out / "residuals.csv").read_text().splitlines()
    assert len(lines) == 4
    assert [line.split(",")[2] for line in lines[2:]] == ["series_exact"] * 2


def test_run_out_of_memory_in_the_sweep_keeps_the_finished_rows(tmp_path, capsys, monkeypatch):
    calls = []

    def second_h_fails(pm, h):
        calls.append(h)
        if len(calls) == 2:
            raise MemoryError()
        return real(pm, h)

    real = cli.residual_series_exact
    monkeypatch.setattr(cli, "residual_series_exact", second_h_fails)
    out = tmp_path / "o"
    code = main(["run", "--builtin", "polynomial", "--N", "1", "--h", "0.1:0.025:3",
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.splitlines() == ["config error: out of memory: MemoryError"]
    lines = (out / "residuals.csv").read_text().splitlines()
    assert len(lines) == 3 and lines[2].startswith("0.1,1,series_exact,")


def test_run_h_too_small_to_index_its_grid_exits_2_and_keeps_the_finished_rows(tmp_path, capsys):
    # at h = 3.2e-151 the residual grid would need about 9e75 Gauss points
    # per axis, more than an array index holds: refused as an allocation the
    # machine cannot make, after the h = 0.1 row
    out = tmp_path / "o"
    code = main(["run", "--builtin", "polynomial", "--N", "1", "--h", "0.1:1e-300:3",
                 "--out", str(out)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: out of memory: ")
    assert "h = 3.16228e-151" in err[0]
    lines = (out / "residuals.csv").read_text().splitlines()
    assert len(lines) == 3 and lines[2].startswith("0.1,1,series_exact,")


def test_bound_fit_refuses_a_near_critical_point_as_run_does(tmp_path, capsys):
    # |d_zbar B(x0)| = 1e-10 lies under GAMMA_TOL: both subcommands exit 3
    field = ["--builtin", "polynomial", "--a", "1", "--b", "i", "--c=-0.9999999998"]
    assert main(["bound-fit", *field, "--D", "24", "--jmax", "3"]) == EXIT_GAMMA
    assert capsys.readouterr().err == "admissibility rejection: d_zbar B(0) = 0 at the base point\n"
    assert main(["run", *field, "--out", str(tmp_path / "o")]) == EXIT_GAMMA


def test_documented_commands_exit_as_the_docs_state(tmp_path, monkeypatch, capsys):
    # every `cmag-wkb ...` line of the --help text and of the README's
    # command-line block exits with the code its trailing comment states
    # ("# exits N"; 0 where it states none)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
    commands = []
    for line in (cli.__doc__ + block).splitlines():
        command, _, note = line.strip().partition("#")
        if command.startswith("cmag-wkb "):
            stated = re.search(r"exits (\d)", note)
            commands.append((shlex.split(command)[1:], int(stated[1]) if stated else EXIT_OK))
    assert len(commands) == 9
    monkeypatch.chdir(tmp_path)  # their --out paths are relative
    assert [(argv, main(argv)) for argv, _ in commands] == commands
    assert "Traceback" not in capsys.readouterr().err


def test_gamma_scan_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(fieldmodel, "gamma_scan", _out_of_memory)
    code = main(["gamma-scan", "--builtin", "oscillating", "--region=-1,1,-1,1",
                 "--n", "1000000", "--out", str(tmp_path / "r.csv")])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("config error: out of memory: ")
    assert not (tmp_path / "r.csv").exists()


_RUN = ["run", "--builtin", "polynomial", "--N", "1", "--h", "0.1:0.05:2"]
_SCAN = ["gamma-scan", "--builtin", "oscillating", "--region=-pi,pi,-pi,pi"]
_CONDS = ["check-conditions", "--builtin", "exponential", "--c", "0.4"]
_FIT = ["bound-fit", "--builtin", "oscillating", "--x0", "pi/3,-pi/2", "--jmax", "4"]


@pytest.mark.parametrize("argv, named", [
    pytest.param(_SCAN + ["--n", "9", "--out", "{missing}/x.csv"], "{missing}/x.csv",
                 id="gamma-scan-missing-dir"),
    pytest.param(_FIT + ["--out", "{missing}/b.json"], "{missing}/b.json",
                 id="bound-fit-missing-dir"),
    pytest.param(_CONDS + ["--out", "{missing}/c.json"], "{missing}/c.json",
                 id="check-conditions-missing-dir"),
    pytest.param(_SCAN + ["--n", "9", "--out", "{tmp}"], "{tmp}", id="gamma-scan-out-is-dir"),
    pytest.param(_RUN + ["--out", "{file}"], "{file}", id="run-out-is-file"),
    pytest.param(_RUN + ["--out", "{file}/o"], "{file}/o", id="run-out-below-file"),
    pytest.param(_SCAN + ["--n", "0", "--out", "{tmp}/r.csv"], "--n 0", id="gamma-scan-n-0"),
    pytest.param(["gamma-scan", "--region=0,inf,0,1", "--out", "{tmp}/r.csv"],
                 "--region 0,inf,0,1", id="gamma-scan-region-inf"),
    pytest.param(_CONDS + ["--region=0,inf,0,1"], "--region 0,inf,0,1",
                 id="check-conditions-region-inf"),
    pytest.param(_SCAN + ["--n=-2", "--out", "{tmp}/r.csv"], "--n -2", id="gamma-scan-n-neg"),
    pytest.param(_CONDS + ["--n", "0"], "--n 0", id="check-conditions-n-0"),
    pytest.param(_CONDS + ["--n", "2", "--r-min", "0"], "--r-min 0",
                 id="check-conditions-r-min-0"),
    pytest.param(_CONDS + ["--n", "2", "--r-min=-1"], "--r-min -1",
                 id="check-conditions-r-min-neg"),
    pytest.param(_CONDS + ["--n", "2", "--r-min", "2", "--r-max", "2"], "--r-min 2",
                 id="check-conditions-r-min-eq-r-max"),
    pytest.param(_CONDS + ["--r-max", "inf"], "--r-max inf", id="check-conditions-r-max-inf"),
    pytest.param(_CONDS + ["--epsilon1", "2"], "epsilon 2", id="check-conditions-epsilon1-2"),
    pytest.param(_CONDS + ["--epsilon1", "0"], "epsilon 0", id="check-conditions-epsilon1-0"),
    pytest.param(_CONDS + ["--epsilon2", "0.7"], "epsilon 0.7",
                 id="check-conditions-epsilon2-0.7"),
    pytest.param(_CONDS + ["--epsilon2", "0.5"], "epsilon 0.5",
                 id="check-conditions-epsilon2-half"),
    pytest.param(_CONDS + ["--C1-const", "nan"], "C_const nan",
                 id="check-conditions-C1-const-nan"),
    pytest.param(_CONDS + ["--C2-const", "inf"], "C_const inf",
                 id="check-conditions-C2-const-inf"),
    pytest.param(_CONDS + ["--h", "nan"], "h nan", id="check-conditions-h-nan"),
    pytest.param(_CONDS + ["--h", "0"], "h 0", id="check-conditions-h-0"),
    pytest.param(_CONDS + ["--h=-1"], "h -1", id="check-conditions-h-neg"),
    pytest.param(_CONDS + ["--h", "inf"], "h inf", id="check-conditions-h-inf"),
    pytest.param(_RUN + ["--R", "not json", "--out", "{tmp}/o"], "table is not JSON",
                 id="run-R-not-json"),
    pytest.param(_RUN + ["--R", '{{"a":1}}', "--out", "{tmp}/o"], "a list of rows",  # {{ for format
                 id="run-R-not-a-list"),
    pytest.param(_RUN + ["--R", '[[6,0,"1+i"]]', "--out", "{tmp}/o"], "R must be real-valued",
                 id="run-R-complex"),
    pytest.param(["run", "--config", "{missing}/c.json", "--out", "{tmp}/o"],
                 "cannot read --config {missing}/c.json", id="run-config-missing"),
    pytest.param(["run", "--config", "{file}", "--out", "{tmp}/o"], "need one object",
                 id="run-config-a-list"),
    pytest.param(["gamma-scan", "--region=0,1,0", "--out", "{tmp}/r.csv"],
                 "region must be 'x1min,x1max,x2min,x2max'", id="gamma-scan-region-three"),
    pytest.param(["run", "--h", "0.1:0.05:1", "--out", "{tmp}/o"], "at least 2 sweep points",
                 id="run-h-one-point"),
    pytest.param(_RUN + ["--x0", "pi/0,0", "--out", "{tmp}/o"], "'pi/0'", id="run-x0-pi-over-0"),
    pytest.param(_RUN + ["--x0", "pi/0.0,0", "--out", "{tmp}/o"], "'pi/0.0'",
                 id="run-x0-pi-over-0.0"),
    pytest.param(_RUN + ["--c", "pi/0", "--out", "{tmp}/o"], "'pi/0'", id="run-c-pi-over-0"),
    pytest.param(_RUN + ["--a", ".pi", "--out", "{tmp}/o"], "'.pi'", id="run-a-bare-dot-pi"),
    pytest.param(_RUN + ["--x0", ".pi,0", "--out", "{tmp}/o"], "'.pi'", id="run-x0-bare-dot-pi"),
    pytest.param(["gamma-scan", "--region=.pi,1,0,1", "--out", "{tmp}/r.csv"], "'.pi'",
                 id="gamma-scan-region-bare-dot-pi"),
    pytest.param(_RUN + ["--R", "[[-1,0,1]]", "--out", "{tmp}/o"], "[-1, 0, 1]",
                 id="run-R-negative-exponent"),
    pytest.param(_RUN + ["--R", "[[0,true,1]]", "--out", "{tmp}/o"], "[0, True, 1]",
                 id="run-R-boolean-exponent"),
])
def test_unwritable_out_and_empty_count_exit_2_before_any_work(
        tmp_path, monkeypatch, capsys, argv, named):
    # an --out that cannot be written, a non-positive --n, a --region bound
    # that is not finite, radii outside 0 < r_min < r_max < inf,
    # check-conditions numbers outside their ranges, a malformed --R table,
    # --config or --region, a number that does not parse (pi/0, a bare-dot
    # coefficient), an --R exponent that is not a non-negative integer or a
    # one-point sweep are refused with one line
    # naming it, and no subcommand reaches its first computation
    def work(*args, **kwargs):
        raise AssertionError("work started")

    for mod, attr in ((cli, "compute_Q"), (cli, "solve_wkb"), (cli, "check_C"),
                      (cli, "check_H"), (fieldmodel, "gamma_scan")):
        monkeypatch.setattr(mod, attr, work)
    (tmp_path / "file").write_text("[1, 2]")  # a file, and a --config that is no object
    paths = {"missing": tmp_path / "missing", "file": tmp_path / "file", "tmp": tmp_path}
    assert main([a.format(**paths) for a in argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert named.format(**paths) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


@pytest.mark.parametrize("argv", [
    _RUN + ["--out", "{tmp}/o"],
    _SCAN + ["--out", "{tmp}/r.csv"],
    _FIT + ["--out", "{tmp}/f.json"],
], ids=["run-out-dir", "gamma-scan-out-file", "bound-fit-out-file"])
def test_out_not_writable_exits_2_before_any_work(tmp_path, monkeypatch, capsys, argv):
    # write permission is read from os.access (root may write anywhere)
    monkeypatch.setattr(cli.os, "access", lambda *args, **kwargs: False)
    for mod, attr in ((cli, "compute_Q"), (cli, "solve_wkb"), (fieldmodel, "gamma_scan")):
        monkeypatch.setattr(mod, attr, lambda *args, **kwargs: pytest.fail("work started"))
    assert main([a.format(tmp=tmp_path) for a in argv]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write --out") and err.count("\n") == 1
    assert err.rstrip().endswith(": not writable")


def test_check_conditions_field_not_finite_on_a_circle_exits_2(tmp_path, capsys):
    # exp(r^2) overflows on the circles from r = 7.2e42 on: the first such
    # radius is named and no verdict is printed or written
    out = tmp_path / "c.csv"
    assert main(_CONDS + ["--n", "4", "--r-min", "1e-300", "--r-max", "1e300",
                          "--out", str(out)]) == EXIT_CONFIG
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("config error") and cap.err.count("\n") == 1
    assert "not finite on the circle r = 7.19686e+42" in cap.err
    assert not out.exists()


def test_gamma_scan_field_not_finite_in_the_region_prints_no_warning(tmp_path, capsys):
    # exp(|x|^2) overflows at the raster point (-30, -30): one config error
    # line, no numpy RuntimeWarning, no raster
    out = tmp_path / "r.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["gamma-scan", "--builtin", "exponential", "--c", "0.4",
                   "--region=-30,30,-30,30", "--n", "5", "--out", str(out)])
    assert rc == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert "(-30.0, -30.0)" in err
    assert not out.exists()


def test_check_conditions_field_not_finite_in_the_region_exits_2(tmp_path, capsys):
    # exp(|x|^2) overflows at the corner (-30, -30) of the sampled region:
    # that point is named, numpy's overflow warnings are not printed, and no
    # C1/C2 verdict is printed or written
    out = tmp_path / "c.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(_CONDS + ["--n", "8", "--region=-30,30,-30,30", "--out", str(out)])
    assert rc == EXIT_CONFIG
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err.startswith("config error") and cap.err.count("\n") == 1
    assert "not finite at the sample point (-30, -30)" in cap.err
    assert "--region -30,30,-30,30" in cap.err
    assert not out.exists()


def test_main_freezes_the_heap_in_a_fresh_process():
    src = str(Path(cli.__file__).resolve().parents[1])
    script = (f"import gc; from cmag_wkb import cli; assert cli.main({_FIT!r}) == 0; "
              "print(gc.get_freeze_count())")
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) > 0


class _Node:
    pass


def test_main_freezes_once_so_later_cycles_stay_collectable():
    # whatever ran before, the cycle is made after a first call of main, so a
    # second call must not move it into the permanent generation
    assert main(_FIT) == EXIT_OK
    node = _Node()
    node.self = node
    ref = weakref.ref(node)
    del node
    assert main(_FIT) == EXIT_OK
    gc.collect()
    assert ref() is None
