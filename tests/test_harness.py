import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import sqopt
from sqopt.cli import main as cli_main
from sqopt import minimize as mz
from sqopt.harness import (
    EXIT_GUARD,
    EXIT_MAX_ITERS,
    EXIT_OK,
    EXIT_SCHEMA,
    VARIANTS,
    LinearRateFit,
    SchemaError,
    build_problem,
    fit_linear_rate,
    run_algorithm,
    run_from_config,
    sweep_compare,
    validate_config,
    write_trace_csv,
)
from sqopt.equilibrium import EpParams
from sqopt.fields import config_keys
from sqopt.harness import _COMMON_KEYS, _RUN_KINDS
from sqopt.minimize import IterationTrace, MinParams
from sqopt.prox import GlobalSolveConfig


def minimal_ppa_config(**algo_extra):
    algo = {
        "variant": "PPA",
        "x0": [1.0, 1.0],
        "c": {"kind": "constant", "value": 0.5},
        "stop_tol": 1e-8,
        "max_iters": 200,
    }
    algo.update(algo_extra)
    return {
        "schema_version": 1,
        "problem": {
            "kind": "minimize",
            "objective": {"catalog": "power_norm", "params": {"n": 2, "halfwidth": 1.0}},
        },
        "algorithm": algo,
    }


def ep_config():
    return {
        "schema_version": 1,
        "problem": {
            "kind": "ep",
            "bifunction": {
                "catalog": "value_gap",
                "params": {"objective": {"catalog": "gauss_well",
                                         "params": {"c": 1.0, "d": 1.0, "delta": 1.0}}},
            },
        },
        "algorithm": {
            "variant": "PPA_EP",
            "x0": [0.9],
            "beta": {"kind": "constant", "value": 3.0},
            "stop_tol": 1e-8,
            "max_iters": 200,
        },
    }


# --- schema ------------------------------------------------------------------


def test_schema_version_required():
    with pytest.raises(SchemaError, match="schema_version"):
        validate_config({"problem": {}}, set())
    with pytest.raises(SchemaError, match="unsupported"):
        validate_config({"schema_version": 99, "problem": {}}, set())


def test_unknown_keys_rejected():
    cfg = minimal_ppa_config()
    cfg["problem"]["mystery"] = 1
    with pytest.raises(SchemaError, match="unknown keys.*mystery"):
        build_problem(cfg["problem"])


def test_unknown_catalog_name_is_schema_error():
    cfg = minimal_ppa_config()
    cfg["problem"]["objective"]["catalog"] = "not_a_function"
    with pytest.raises(SchemaError, match="config|unknown"):
        build_problem(cfg["problem"])


def test_rho_out_of_range_is_schema_error(tmp_path):
    cfg = minimal_ppa_config(variant="RIPPA", alpha=0.1, rho_lo=0.5, rho_hi=2.0)
    with pytest.raises(SchemaError):
        run_from_config(cfg, tmp_path)


def test_bad_schedule_spec():
    cfg = minimal_ppa_config(c={"kind": "mystery", "value": 1.0})
    with pytest.raises(SchemaError, match="schedule"):
        run_from_config(cfg, "/tmp/unused")


# --- run_from_config -----------------------------------------------------------


def test_run_from_config_ppa(tmp_path):
    summary, code, paths = run_from_config(minimal_ppa_config(), tmp_path)
    assert code == EXIT_OK
    assert summary.distance_to_known_solution <= 1e-5
    assert summary.final_residual <= 1e-8 or summary.terminated_by == "exact_fixed_point"
    assert paths["trace"].exists() and paths["summary"].exists()
    loaded = json.loads(paths["summary"].read_text())
    assert list(loaded) == sorted(loaded)  # deterministic key order


def test_run_from_config_max_iters_exit(tmp_path):
    cfg = minimal_ppa_config(max_iters=1)
    _, code, _ = run_from_config(cfg, tmp_path)
    assert code == EXIT_MAX_ITERS


def test_run_from_config_ep(tmp_path):
    summary, code, paths = run_from_config(ep_config(), tmp_path)
    assert code == EXIT_OK
    header = paths["trace"].read_text().splitlines()[0]
    assert header == "k,value,residual,step_norm,cum_prox_evals,wall_ms,residual_ep,line_search_m"
    loaded = json.loads(paths["summary"].read_text())
    assert loaded["guarded"] and loaded["guard_notes"] == []
    # an unguarded run's summary says why: f(x, .) of the 2-D glt_example is
    # not quasiconvex, so gamma = 0 and no beta window exists
    cfg = ep_config()
    cfg["problem"]["bifunction"] = {"catalog": "glt_example", "params": {"p": 2, "q": 2, "n": 2}}
    cfg["algorithm"].update(x0=[1.0, 2.0], beta={"kind": "constant", "value": 0.18}, max_iters=1)
    summary, _, paths = run_from_config(cfg, tmp_path / "glt2d")
    loaded = json.loads(paths["summary"].read_text())
    assert not loaded["guarded"] and not summary.guarded
    assert loaded["guard_notes"] == ["no admissible beta window for gamma=0, eta=0.5"]


def test_trace_csv_byte_reproducible(tmp_path):
    cfg = minimal_ppa_config()
    _, _, p1 = run_from_config(cfg, tmp_path / "a")
    _, _, p2 = run_from_config(cfg, tmp_path / "b")
    assert p1["trace"].read_bytes() == p2["trace"].read_bytes()
    e1 = run_from_config(ep_config(), tmp_path / "c")[2]
    e2 = run_from_config(ep_config(), tmp_path / "d")[2]
    assert e1["trace"].read_bytes() == e2["trace"].read_bytes()


def test_trace_csv_header_and_wall_column(tmp_path):
    _, _, paths = run_from_config(minimal_ppa_config(), tmp_path)
    lines = paths["trace"].read_text().splitlines()
    assert lines[0] == "k,value,residual,step_norm,cum_prox_evals,wall_ms"
    for row in lines[1:]:
        assert row.split(",")[5] == ""  # wall_ms stays empty for determinism


# --- rate fitting -----------------------------------------------------------------


def synthetic_trace(distances):
    d = np.asarray(distances, dtype=float)
    n = d.shape[0]
    return IterationTrace(
        iterates=d[:, None],  # distance to 0 equals |d|
        values=np.zeros(n),
        residuals=np.zeros(n),
        step_norms=np.zeros(n),
        cum_evals=np.zeros(n, dtype=int),
        prox_evals=0,
        fn_evals=0,
        wall_ms=0.0,
        terminated_by="residual",
        guarded=True,
    )


def test_fit_linear_rate_geometric():
    tr = synthetic_trace(2.0 ** -np.arange(30))
    fit = fit_linear_rate(tr, np.zeros(1), window=0.5)
    assert fit.q == pytest.approx(0.5, abs=1e-6)
    assert fit.r_squared >= 1.0 - 1e-12


def test_fit_linear_rate_stalled_low_r2():
    rng = np.random.Generator(np.random.Philox(key=3))
    tr = synthetic_trace(1.0 + 0.01 * rng.random(40))
    fit = fit_linear_rate(tr, np.zeros(1), window=1.0)
    assert fit.r_squared < 0.5  # stalled: no linear trend to speak of


def test_fit_linear_rate_below_floor():
    tr = synthetic_trace(np.zeros(20))
    fit = fit_linear_rate(tr, np.zeros(1))
    assert fit.below_floor and fit.q is None


# --- sweep -------------------------------------------------------------------------


def sweep_config(alphas, rhos):
    cfg = minimal_ppa_config()
    cfg["sweep"] = {"alphas": alphas, "rhos": rhos}
    return cfg


def test_sweep_singleton_equals_baseline(tmp_path):
    table = sweep_compare(sweep_config([0.0], [1.0]), tmp_path)
    rows = table["rows"]
    assert len(rows) == 2  # one cell plus the baseline
    assert rows[0]["iterations"] == rows[1]["iterations"]
    assert table["best_cell"] is not None


def test_sweep_3x3_deterministic(tmp_path):
    cfg = sweep_config([0.0, 0.1, 0.2], [0.8, 1.0, 1.2])
    t1 = sweep_compare(cfg, tmp_path / "s1")
    t2 = sweep_compare(cfg, tmp_path / "s2")
    assert t1 == t2
    assert len(t1["rows"]) == 10
    baseline = t1["rows"][-1]
    assert baseline["cell"] == "baseline" and baseline["converged"]
    best = min(r["iterations"] for r in t1["rows"] if r.get("converged"))
    assert best <= baseline["iterations"]
    assert isinstance(t1["strict_speedup_found"], bool)
    assert (tmp_path / "s1" / "sweep.csv").exists()


def test_sweep_workers_do_not_change_result(tmp_path):
    # the CLI accepts --workers and runs the cells in lockstep whatever its value
    path = write_cfg(tmp_path, sweep_config([0.0, 0.1], [1.0]))
    for w in ("1", "3"):
        out = str(tmp_path / f"w{w}")
        assert cli_main(["sweep", "--config", path, "--out", out, "--workers", w]) == EXIT_OK
    assert (tmp_path / "w1" / "sweep.json").read_bytes() == (tmp_path / "w3" / "sweep.json").read_bytes()


def test_sweep_on_ep_problem(tmp_path):
    cfg = ep_config()
    cfg["sweep"] = {"alphas": [0.0, 0.1], "rhos": [1.0]}
    table = sweep_compare(cfg, tmp_path)
    assert len(table["rows"]) == 3
    assert all(r["converged"] for r in table["rows"])
    assert table["rows"][-1]["cell"] == "baseline"


def test_ep_trace_residual_ep_column(tmp_path):
    _, _, paths = run_from_config(ep_config(), tmp_path)
    rows = [line.split(",") for line in paths["trace"].read_text().splitlines()[1:]]
    marked = [r[6] for r in rows if r[6] != ""]
    assert marked  # periodic certificate column is populated
    assert float(rows[-1][6]) >= -1e-6  # near zero at the returned solution


# --- CLI ---------------------------------------------------------------------------


def write_cfg(tmp_path, cfg, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(cfg))
    return str(p)


def test_cli_minimize_exit_codes(tmp_path, capsys):
    path = write_cfg(tmp_path, minimal_ppa_config())
    assert cli_main(["minimize", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["distance_to_known_solution"] <= 1e-5
    bad = write_cfg(tmp_path, {"schema_version": 1}, "bad.json")
    assert cli_main(["minimize", "--config", bad, "--out", str(tmp_path)]) == EXIT_SCHEMA
    assert cli_main(["minimize", "--config", str(tmp_path / "nope.json")]) == EXIT_SCHEMA
    capped = write_cfg(tmp_path, minimal_ppa_config(max_iters=1), "capped.json")
    assert cli_main(["minimize", "--config", capped, "--out", str(tmp_path / "o2")]) == EXIT_MAX_ITERS


def test_cli_solve_ep(tmp_path, capsys):
    path = write_cfg(tmp_path, ep_config())
    assert cli_main(["solve-ep", "--config", path, "--out", str(tmp_path / "e")]) == EXIT_OK


def test_cli_guard_abort_exit(tmp_path):
    cfg = ep_config()
    cfg["algorithm"] = {
        "variant": "TWO_PPA_EP",
        "x0": [0.9],
        "beta": {"kind": "constant", "value": 3.0},
        "epsilon": 0.01,
    }
    cfg["problem"]["bifunction"] = {"catalog": "glt_example", "params": {"p": 2, "q": 2}}
    # synthetic mid-regime: make the window empty by inflating gamma via a
    # bifunction whose estimates fall in 8 eta < gamma <= 12 eta is not easy
    # from the CLI; instead drive the guard abort through the Bregman zone
    cfg2 = {
        "schema_version": 1,
        "problem": {"kind": "minimize",
                    "objective": {"catalog": "gauss_well",
                                  "params": {"c": 1.0, "d": 1.0, "delta": 1.0}}},
        "algorithm": {"variant": "BPPA", "x0": [-0.5],
                      "bregman": {"name": "neg_entropy"},
                      "c": {"kind": "constant", "value": 0.5}},
    }
    path = write_cfg(tmp_path, cfg2)
    assert cli_main(["minimize", "--config", path, "--out", str(tmp_path / "g")]) == EXIT_GUARD


def test_cli_verify(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "problem": {"kind": "minimize",
                    "objective": {"catalog": "gauss_well",
                                  "params": {"c": 1.0, "d": 1.0, "delta": 1.0}}},
        "verify": {"checks": [{"check": "sqc", "n": 2000},
                              {"check": "modulus", "n": 2000},
                              {"check": "growth"}]},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli_main(["verify", "--config", path, "--out", str(tmp_path / "v")]) == EXIT_OK
    reports = json.loads((tmp_path / "v" / "checks.json").read_text())
    assert len(reports) == 3 and all(r["passed"] for r in reports)


def test_cli_verify_bifunction_checks(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "problem": {"kind": "ep",
                    "bifunction": {"catalog": "glt_example", "params": {"p": 2, "q": 2}}},
        "verify": {"checks": [{"check": "a0"}, {"check": "pseudomonotone"},
                              {"check": "eta"}]},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli_main(["verify", "--config", path, "--out", str(tmp_path / "vb")]) == EXIT_OK
    reports = json.loads((tmp_path / "vb" / "checks.json").read_text())
    assert all(r["passed"] for r in reports)


def test_cli_dynamics(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "problem": {"kind": "minimize",
                    "objective": {"catalog": "sin_quad", "params": {}}},
        "dynamics": {"system": "ds1", "x0": [2.0], "T": 5.0, "dt": 0.001},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli_main(["dynamics", "--config", path, "--out", str(tmp_path / "d")]) == EXIT_OK
    lines = (tmp_path / "d" / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,u0,value,speed"
    assert len(lines) == 5002


def test_cli_sweep(tmp_path, capsys):
    cfg = sweep_config([0.0, 0.1], [1.0])
    path = write_cfg(tmp_path, cfg)
    assert cli_main(["sweep", "--config", path, "--out", str(tmp_path / "sw")]) == EXIT_OK
    table = json.loads(capsys.readouterr().out)
    assert len(table["rows"]) == 3


# --- emitted files and exit codes ----------------------------------------------


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_summary_json_is_strict_with_zero_iterations(tmp_path):
    summary, _, paths = run_from_config(minimal_ppa_config(max_iters=0), tmp_path)
    assert not np.isfinite(summary.final_residual)
    loaded = json.loads(paths["summary"].read_text(), parse_constant=_reject_constant)
    assert loaded["final_residual"] is None


def test_cli_empty_list_schedule_is_schema_error(tmp_path, capsys):
    path = write_cfg(tmp_path, minimal_ppa_config(c={"kind": "list", "values": []}))
    assert cli_main(["minimize", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err.strip()
    assert err.startswith("schema error: algorithm.c") and "\n" not in err


def test_cli_wrong_length_x0_is_schema_error(tmp_path, capsys):
    path = write_cfg(tmp_path, minimal_ppa_config(x0=[1.0, 1.0, 1.0]))
    assert cli_main(["minimize", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err.strip()
    assert err.startswith("schema error: algorithm.x0") and "dimension" in err
    cfg = ep_config()
    cfg["algorithm"]["x0"] = [0.9, 0.1]
    path = write_cfg(tmp_path, cfg, "ep.json")
    assert cli_main(["solve-ep", "--config", path, "--out", str(tmp_path / "e")]) == EXIT_SCHEMA


def test_cli_emitted_json_is_strict(tmp_path, capsys):
    # max_iters=0 leaves every sweep cell's final residual non-finite, and a
    # zero-sample check reports an infinite worst margin: both become null
    sweep = sweep_config([0.0, 0.1], [1.0])
    sweep["algorithm"]["max_iters"] = 0
    checks = {
        "schema_version": 1,
        "problem": {"kind": "minimize",
                    "objective": {"catalog": "gauss_well",
                                  "params": {"c": 1.0, "d": 1.0, "delta": 1.0}}},
        "verify": {"checks": [{"check": "sqc", "n": 0}, {"check": "growth", "n": 0}]},
    }
    dyn = {
        "schema_version": 1,
        "problem": {"kind": "minimize", "objective": {"catalog": "sin_quad", "params": {}}},
        "dynamics": {"system": "ds1", "x0": [2.0], "T": 1.0, "dt": 0.01},
    }
    for command, cfg, emitted in (("sweep", sweep, "sweep.json"),
                                  ("verify", checks, "checks.json"),
                                  ("dynamics", dyn, None)):
        out = tmp_path / command
        path = write_cfg(tmp_path, cfg, f"{command}.json")
        assert cli_main([command, "--config", path, "--out", str(out)]) == EXIT_OK
        json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        if emitted:
            json.loads((out / emitted).read_text(), parse_constant=_reject_constant)
    rows = json.loads((tmp_path / "sweep" / "sweep.json").read_text())["rows"]
    assert all(r["final_residual"] is None for r in rows)
    reports = json.loads((tmp_path / "verify" / "checks.json").read_text())
    assert all(r["worst_margin"] is None for r in reports)


def test_cli_unbounded_set_without_search_radius_is_schema_error(tmp_path, capsys):
    cfg = minimal_ppa_config(x0=[2.0])
    cfg["problem"] = {"kind": "minimize", "objective": {"catalog": "sin_quad", "params": {}},
                      "set": {"kind": "full_space", "dim": 1}}
    path = write_cfg(tmp_path, cfg)
    assert cli_main(["minimize", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err.strip()
    assert err.startswith("schema error: algorithm") and "'search_radius'" in err
    assert "\n" not in err
    cfg["algorithm"]["search_radius"] = 6.0
    path = write_cfg(tmp_path, cfg, "radius.json")
    assert cli_main(["minimize", "--config", path, "--out", str(tmp_path / "r")]) == EXIT_OK


def test_cli_verify_unbounded_set_without_radius_is_schema_error(tmp_path, capsys):
    # a sampling check on full_space used to exit 3 with "aborted: FullSpace is
    # unbounded: a radius is required"
    cfg = {
        "schema_version": 1,
        "problem": {"kind": "minimize", "objective": {"catalog": "sin_quad", "params": {}}},
        "verify": {"checks": [{"check": "sqc"}]},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli_main(["verify", "--config", path, "--out", str(tmp_path / "v")]) == EXIT_SCHEMA
    err = capsys.readouterr().err.strip()
    assert err.startswith("schema error: config.verify.checks[0]") and "'radius'" in err
    assert "\n" not in err
    # with a radius it samples; supercoercivity takes its own radii and needs none
    cfg["verify"]["checks"] = [{"check": "sqc", "n": 200, "radius": 4.0},
                               {"check": "supercoercive"}]
    path = write_cfg(tmp_path, cfg, "radius.json")
    assert cli_main(["verify", "--config", path, "--out", str(tmp_path / "r")]) == EXIT_OK
    reports = json.loads((tmp_path / "r" / "checks.json").read_text())
    assert len(reports) == 2 and all(r["passed"] for r in reports)


def test_cli_dynamics_divergence_is_guard_abort(tmp_path, capsys):
    # dt = 5 is far past RK4's stability limit on sin_quad: the state used to
    # reach 5e48 (value 2.5e97) and the run exited 0
    cfg = {
        "schema_version": 1,
        "problem": {"kind": "minimize", "objective": {"catalog": "sin_quad", "params": {}}},
        "dynamics": {"system": "ds1", "x0": [2.0], "T": 100.0, "dt": 5.0},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli_main(["dynamics", "--config", path, "--out", str(tmp_path / "d")]) == EXIT_GUARD
    err = capsys.readouterr().err.strip()
    assert err.startswith("aborted: diverged") and "\n" not in err


# --- variant registry ----------------------------------------------------------------


def variant_config(variant, **algo):
    """A config running ``variant`` from 0.5 on gauss_well, or on its value gap."""
    cfg = ep_config()
    if VARIANTS[variant].kind == "minimize":
        objective = cfg["problem"]["bifunction"]["params"]["objective"]
        cfg["problem"] = {"kind": "minimize", "objective": objective}
    cfg["algorithm"] = {"variant": variant, "x0": [0.5], "max_iters": 200, **algo}
    return cfg


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_cli_every_variant_at_zero_iterations_hits_the_cap(tmp_path, variant):
    algo = {"eta_min": 0.01} if variant == "INERTIAL_GM" else {}
    path = write_cfg(tmp_path, variant_config(variant, max_iters=0, **algo))
    command = "solve-ep" if VARIANTS[variant].kind == "ep" else "minimize"
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_MAX_ITERS
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["terminated_by"] == "max_iters" and summary["iterations"] == 0
    assert len((tmp_path / "o" / "trace.csv").read_text().splitlines()) == 2  # header + x0


# x <= -1 and x >= 1
_EMPTY_SET = {"kind": "halfspaces", "normals": [[1.0, 0.0], [-1.0, 0.0]], "bounds": [-1.0, -1.0]}
# x >= 1, y >= 1 and x + y <= 1
_EMPTY_TRIANGLE = {"kind": "halfspaces", "normals": [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                   "bounds": [-1.0, -1.0, 1.0]}
_VERIFY_SECTION = {"verify": {"checks": [{"check": "sqc", "n": 50, "radius": 3.0}]}}


def _empty_set_config(empty_set, section):
    return {"schema_version": 1, **section,
            "problem": {"kind": "minimize", "set": empty_set,
                        "objective": {"catalog": "power_norm", "params": {"n": 2}}}}


@pytest.mark.parametrize("command, section, empty_set", [
    ("verify", _VERIFY_SECTION, _EMPTY_SET),
    ("minimize", {"algorithm": {"variant": "PPA", "x0": [0.5, 0.5], "max_iters": 5,
                                "search_radius": 3.0}}, _EMPTY_SET),
    ("verify", _VERIFY_SECTION, _EMPTY_TRIANGLE),
], ids=["verify", "minimize", "triangle"])
def test_cli_empty_halfspace_intersection_is_guard_abort(tmp_path, capsys, command, section,
                                                         empty_set):
    # the projection proves each set empty, and the command refuses with one line
    path = write_cfg(tmp_path, _empty_set_config(empty_set, section))
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_GUARD
    err = capsys.readouterr().err
    assert err == "aborted: the halfspace intersection is empty\n"


def test_cli_module_run_refuses_an_empty_halfspace_intersection(tmp_path):
    path = write_cfg(tmp_path, _empty_set_config(_EMPTY_TRIANGLE, _VERIFY_SECTION))
    env = {**os.environ, "PYTHONPATH": str(Path(sqopt.__file__).parents[1])}
    res = subprocess.run([sys.executable, "-m", "sqopt.cli", "verify", "--config", path,
                          "--out", str(tmp_path / "o")], capture_output=True, text=True, env=env,
                         timeout=120)
    assert res.returncode == EXIT_GUARD
    assert res.stderr == "aborted: the halfspace intersection is empty\n"


_SIN_QUAD = {"kind": "minimize", "objective": {"catalog": "sin_quad", "params": {}}}


# each ended in a traceback with exit 1; the sizes are at least 2**50
# elements, beyond any 64-bit address space, so no allocation can succeed
@pytest.mark.parametrize("command, cfg", [
    ("minimize", variant_config("PPA", prox={"grid_density": 2**50})),
    ("dynamics", {"schema_version": 1, "problem": _SIN_QUAD,
                  "dynamics": {"system": "ds1", "x0": [2.0], "T": float(2**51), "dt": 1.0}}),
    ("verify", {"schema_version": 1, "problem": _SIN_QUAD,
                "verify": {"checks": [{"check": "supercoercive", "radii": [1e300, 1e308]}]}}),
], ids=["grid_density", "dynamics_steps", "supercoercive_radii"])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # stderr holds one line
def test_cli_impossible_allocation_or_float_overflow_is_guard_abort(tmp_path, capsys, command,
                                                                      cfg):
    path = write_cfg(tmp_path, cfg)
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_GUARD
    err = capsys.readouterr().err
    assert err.startswith("aborted: ") and len(err.strip().splitlines()) == 1


def test_cli_supercoercive_overflow_names_the_check_and_the_radius(tmp_path, capsys):
    # the line was Python's bare errno text, "(34, 'Numerical result out of range')"
    cfg = {"schema_version": 1, "problem": _SIN_QUAD,
           "verify": {"checks": [{"check": "supercoercive", "radii": [1e300, 1e308]}]}}
    path = write_cfg(tmp_path, cfg)
    assert cli_main(["verify", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_GUARD
    err = capsys.readouterr().err
    assert err == "aborted: supercoercive: the square of radius 1e+308 overflows\n"


# power_norm and glt_example failed on a zero-size reduction, euclid_norm on a
# negative dimension, after RuntimeWarnings on stderr
@pytest.mark.parametrize("command, problem, name", [
    ("minimize", {"kind": "minimize", "objective": {"catalog": "power_norm", "params": {"n": 0}}},
     "objective"),
    ("minimize", {"kind": "minimize",
                  "objective": {"catalog": "euclid_norm", "params": {"n": -1}}}, "objective"),
    ("solve-ep", {"kind": "ep", "bifunction": {"catalog": "glt_example", "params": {"n": 0}}},
     "bifunction"),
], ids=["power_norm", "euclid_norm", "glt_example"])
@pytest.mark.filterwarnings("error::RuntimeWarning")  # stderr holds one line
def test_cli_catalog_dimension_below_one_is_schema_error(tmp_path, capsys, command, problem,
                                                          name):
    variant = "PPA" if command == "minimize" else "PPA_EP"
    cfg = {**variant_config(variant), "problem": problem}
    path = write_cfg(tmp_path, cfg)
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    catalog_name = problem[name]["catalog"]
    assert capsys.readouterr().err == (
        f"schema error: problem.{name}: {catalog_name} requires n >= 1\n")


# one hard-range violation per variant whose validator rejects some config;
# each of these but RIPPA's exited 3 as a guard abort before.  PPA, BPPA, GRAD
# and REG_EP reject only a nonpositive schedule, which Schedule itself now
# rejects: those cases are in MALFORMED_VALUES
HARD_RANGE_VIOLATIONS = {
    "RIPPA": {"alpha": 1.0},
    "SUBGRAD": {"beta": 0.0},
    "HEAVY_BALL": {"hb_eta": 0.0},
    "INERTIAL_GM": {"eta_min": 0.0},
    "RIPPA_EP": {"alpha": 1.0},
    "IEPPA_EP": {"alpha": 1.0},
    "TWO_PPA_EP": {"epsilon": 0.0},
    "EG_EP": {"ls_alpha": 1.0},
    "PEG_EP": {"ls_rho": 0.0},
}


@pytest.mark.parametrize("variant", sorted(HARD_RANGE_VIOLATIONS))
def test_cli_validator_violation_is_schema_error(tmp_path, capsys, variant):
    path = write_cfg(tmp_path, variant_config(variant, **HARD_RANGE_VIOLATIONS[variant]))
    command = "solve-ep" if VARIANTS[variant].kind == "ep" else "minimize"
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err.strip()
    assert err.startswith("schema error: algorithm: ") and "\n" not in err


# NaN under a key whose validator requires it positive; each of these ran
# (SUBGRAD and HEAVY_BALL then exited 3, INERTIAL_GM 2, TWO_PPA_EP 0).  The
# key's finite-number kind now rejects it before the validator runs
NAN_HARD_RANGES = [("SUBGRAD", "beta"), ("HEAVY_BALL", "hb_eta"),
                   ("INERTIAL_GM", "eta_min"), ("TWO_PPA_EP", "epsilon")]


@pytest.mark.parametrize("variant, key", NAN_HARD_RANGES)
def test_cli_nan_hard_range_is_schema_error(tmp_path, capsys, variant, key):
    path = write_cfg(tmp_path, variant_config(variant, **{key: float("nan")}))
    command = "solve-ep" if VARIANTS[variant].kind == "ep" else "minimize"
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err == f"schema error: algorithm.{key}: expected a finite number, got nan\n"


# malformed values under one algorithm key; before, six of the first twelve
# ended in a traceback, three aborted with exit 3 and three ran (the unknown
# bregman key, max_local_iters -1, an infinite prox seed; ``prox.seed`` is now
# an unknown key, since the global solver draws no random numbers).  Of the
# rest, the nonpositive schedules were validator errors (exit 1); beta -1 on
# RIPPA_EP, IEPPA_EP and TWO_PPA_EP, and NaN c or beta, aborted at the first
# prox with exit 3; prox.local_tol NaN and a negative search_radius ran;
# stop_tol NaN was accepted and max_iters -5 hit the cap with exit 2
MALFORMED_VALUES = [
    ("BPPA", {"bregman": {}}),
    ("BPPA", {"bregman": "neg_entropy"}),
    ("BPPA", {"bregman": {"name": "nope"}}),
    ("BPPA", {"bregman": {"name": "neg_entropy", "shift": 2, "zzz": 1}}),
    ("BPPA", {"bregman": {"name": "neg_entropy", "shift": "x"}}),
    ("PPA", {"prox": {"n_starts": "x"}}),
    ("PPA", {"prox": {"local_tol": "a"}}),
    ("PPA", {"prox": {"max_local_iters": "many"}}),
    ("PPA", {"prox": {"max_local_iters": -1}}),
    ("PPA", {"prox": {"grid_density": -3}}),
    ("PPA", {"prox": {"seed": float("inf")}}),
    ("PPA", {"max_iters": float("inf")}),
    ("PPA", {"c": -0.5}),
    ("BPPA", {"c": 0.0}),
    ("GRAD", {"steps": -0.1}),
    ("REG_EP", {"beta": -1.0}),
    ("RIPPA_EP", {"beta": -1}),
    ("IEPPA_EP", {"beta": -1}),
    ("TWO_PPA_EP", {"beta": -1}),
    ("RIPPA_EP", {"beta": float("nan")}),
    ("PPA", {"c": float("nan")}),
    ("PPA", {"c": {"kind": "list", "values": [1.0, 0.0]}}),
    ("PPA", {"prox": {"seed": 123}}),
    ("PPA", {"prox": {"local_tol": float("nan")}}),
    ("PPA", {"prox": {"search_radius": -1.0}}),
    ("PPA", {"search_radius": -1.0}),
    ("PPA", {"stop_tol": float("nan")}),
    ("PPA", {"max_iters": -5}),
    # a boolean, a string or a non-finite number under a float field ran
    # (exit 0 or 2): each is now one line naming the field
    ("PPA", {"stop_tol": True}),
    ("PPA", {"stop_tol": "1e-3"}),
    ("PPA", {"stop_tol": float("inf")}),
    ("PPA", {"c": True}),
    ("PPA", {"c": float("inf")}),
    ("PPA", {"c": {"kind": "list", "values": ["1"]}}),
    ("PPA", {"prox": {"local_tol": True}}),
    ("PPA", {"search_radius": True}),
]


@pytest.mark.parametrize("variant, algo", MALFORMED_VALUES)
def test_cli_malformed_algorithm_value_is_schema_error(tmp_path, capsys, variant, algo):
    path = write_cfg(tmp_path, variant_config(variant, **algo))
    command = "solve-ep" if VARIANTS[variant].kind == "ep" else "minimize"
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err.strip()
    # the path names the key: under prox, the solve key, or prox itself for an unknown one
    key = next(iter(algo))
    if key == "prox" and next(iter(algo["prox"])) in config_keys(GlobalSolveConfig):
        key = f"prox.{next(iter(algo['prox']))}"
    assert re.match(rf"schema error: algorithm\.{re.escape(key)}[.:\[]", err), err
    assert "\n" not in err


# REG_EP with inner_max -1 aborted with exit 3 (inner solve "stagnated"), and
# an unknown policy ran as the strict one with exit 0
PARAMETER_RANGES = [
    ("REG_EP", "inner_max", -1),
    ("REG_EP", "inner_max", 0),
    ("RIPPA_EP", "policy", "bogus"),
    ("PPA_EP", "policy", "Strict"),
]


@pytest.mark.parametrize("variant, key, value", PARAMETER_RANGES)
def test_cli_parameter_range_names_its_key(tmp_path, capsys, variant, key, value):
    path = write_cfg(tmp_path, variant_config(variant, **{key: value}))
    assert cli_main(["solve-ep", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: algorithm.{key}: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_ep_params_accept_the_documented_values():
    assert EpParams(inner_max=1, policy="strict").policy == "strict"
    with pytest.raises(ValueError, match="policy"):
        EpParams(policy="bogus")


# runs that end without converging print their summary and one line on stderr
NOT_CONVERGED = [
    ({"variant": "GRAD", "x0": [2.0], "steps": {"kind": "constant", "value": 5.0}},
     {"catalog": "sin_quad", "params": {}}, EXIT_GUARD, "aborted: diverged at iteration "),
    ({"variant": "PPA", "x0": [0.5], "max_iters": 1, "stop_tol": 1e-14},
     {"catalog": "gauss_well", "params": {}}, EXIT_MAX_ITERS,
     "stopped: max_iters reached after 1 iterations, residual "),
]


@pytest.mark.parametrize("algo, objective, code, line", NOT_CONVERGED,
                         ids=["diverged", "max_iters"])
def test_cli_unconverged_run_writes_one_stderr_line(tmp_path, capsys, algo, objective, code,
                                                    line):
    cfg = {"schema_version": 1, "problem": {"kind": "minimize", "objective": objective},
           "algorithm": algo}
    path = write_cfg(tmp_path, cfg)
    assert cli_main(["minimize", "--config", path, "--out", str(tmp_path / "o")]) == code
    captured = capsys.readouterr()
    summary = json.loads(captured.out)
    assert summary == json.loads((tmp_path / "o" / "summary.json").read_text())
    assert captured.err.startswith(line) and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_cli_converged_run_writes_nothing_to_stderr(tmp_path, capsys):
    path = write_cfg(tmp_path, minimal_ppa_config())
    assert cli_main(["minimize", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_every_parameter_field_is_reached_by_a_config_key():
    """No knob that no config sets: each accepted key is a bag field and back."""
    reached = {MinParams: set(), EpParams: set()}
    for name, entry in VARIANTS.items():
        cls = MinParams if entry.kind == "minimize" else EpParams
        names = {f.name for f in fields(cls)}
        for key in (_COMMON_KEYS | entry.keys) - _RUN_KINDS.keys():
            field_name = "prox_cfg" if key == "prox" else key
            assert field_name in names, f"{name} accepts {key!r}, which is no {cls.__name__} field"
            reached[cls].add(field_name)
    # psi (summable perturbations of GRAD) is a callable, set only from Python
    assert {f.name for f in fields(MinParams)} - reached[MinParams] == {"psi"}
    assert {f.name for f in fields(EpParams)} - reached[EpParams] == set()
    # the solve's search radius is reached only through the top-level search_radius
    assert set(config_keys(GlobalSolveConfig)) | {"search_radius"} == {
        f.name for f in fields(GlobalSolveConfig)}


def _sweep_cfg(**sweep):
    return {**minimal_ppa_config(), "sweep": {"alphas": [0.1], "rhos": [1.0], **sweep}}


def _verify_cfg(**check):
    cfg = variant_config("PPA")
    del cfg["algorithm"]
    return {**cfg, "verify": {"checks": [{"check": "sqc", "n": 10, **check}]}}


def _second_check(**check):
    cfg = _verify_cfg()
    cfg["verify"]["checks"].append({"check": "sqc", "n": 10, **check})
    return cfg


def _dynamics_cfg(**dyn):
    cfg = variant_config("PPA")
    del cfg["algorithm"]
    return {**cfg, "dynamics": {"system": "ds1", "x0": [0.5], "T": 1.0, "dt": 0.01, **dyn}}


# values under sweep, verify and dynamics that fail before any work starts;
# radii 5 and alphas 0.1 ended in a traceback, the others aborted with exit 3
SECTION_VALUES = [
    ("sweep", _sweep_cfg(alphas=0.1), "config.sweep.alphas"),
    ("sweep", _sweep_cfg(alphas=["x"]), "config.sweep.alphas[0]"),
    ("sweep", _sweep_cfg(rhos="x"), "config.sweep.rhos"),
    ("verify", _verify_cfg(check="supercoercive", radii=5), "config.verify.checks[0].radii"),
    ("verify", _verify_cfg(n="x"), "config.verify.checks[0].n"),
    ("verify", _verify_cfg(n=-3), "config.verify.checks[0].n"),
    ("verify", _verify_cfg(gamma="x"), "config.verify.checks[0].gamma"),
    ("verify", _verify_cfg(check="growth", xbar=[0.0, 0.0]), "config.verify.checks[0].xbar"),
    ("dynamics", _dynamics_cfg(T="x"), "config.dynamics.T"),
    ("dynamics", _dynamics_cfg(system="ds2", damping="x"), "config.dynamics.damping"),
    ("dynamics", _dynamics_cfg(dt=0), "config.dynamics.dt"),
    ("dynamics", _dynamics_cfg(x0=[0.5, 0.5]), "config.dynamics.x0"),
    # each ran with exit 0 but gamma NaN or -1 and lip NaN, which exited 3; the bad
    # value is in a second check, or a second entry, whose index the path names
    pytest.param("dynamics", _dynamics_cfg(dt=True), "config.dynamics.dt",
                 id="config.dynamics.dt-boolean"),
    ("sweep", _sweep_cfg(alphas=[0.1, "0.1"]), "config.sweep.alphas[1]"),
    ("verify", _second_check(gamma=True), "config.verify.checks[1].gamma"),
    ("verify", _second_check(gamma=float("nan")), "config.verify.checks[1].gamma"),
    ("verify", _second_check(gamma=-1), "config.verify.checks[1].gamma"),
    ("verify", _second_check(check="pl", lip=float("nan")), "config.verify.checks[1].lip"),
    # declared ranges: a radius of -1, 0 or NaN ran with exit 0; the others exited 3
    ("verify", _second_check(radius=-1), "config.verify.checks[1].radius"),
    ("verify", _second_check(radius=0), "config.verify.checks[1].radius"),
    ("verify", _second_check(radius=float("nan")), "config.verify.checks[1].radius"),
    ("verify", {**_verify_cfg(), "seed": -1}, "config.seed"),
    ("verify", _second_check(seed=-1), "config.verify.checks[1].seed"),
    # a seed of 2**128 or more exited 3 with NumPy's Philox key message
    pytest.param("verify", {**_verify_cfg(), "seed": 2**128}, "config.seed",
                 id="config.seed-too-large"),
    pytest.param("verify", _second_check(seed=2**64), "config.verify.checks[1].seed",
                 id="config.verify.checks[1].seed-too-large"),
    ("verify", _second_check(check="subdiff", beta=-1), "config.verify.checks[1].beta"),
    ("verify", _second_check(check="pl", lip=-1), "config.verify.checks[1].lip"),
    ("verify", _second_check(check="supercoercive", radii=[-1, 2]),
     "config.verify.checks[1].radii[0]"),
]


@pytest.mark.parametrize("command, cfg, field_path", SECTION_VALUES,
                         ids=[row[-1] for row in SECTION_VALUES])  # a pytest.param's own id
def test_cli_bad_section_value_is_schema_error(tmp_path, capsys, command, cfg, field_path):
    path = write_cfg(tmp_path, cfg)
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: {field_path}: ") and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_cli_verify_seed_flag_is_bounded(tmp_path, capsys):
    path = write_cfg(tmp_path, _verify_cfg())
    argv = ["verify", "--config", path, "--out", str(tmp_path / "o"), "--seed"]
    assert cli_main(argv + [str(2**64 - 1)]) == EXIT_OK
    capsys.readouterr()
    assert cli_main(argv + [str(2**128)]) == EXIT_SCHEMA
    assert capsys.readouterr().err == (
        f"schema error: config.seed: must be <= {2**64 - 1}, got {2**128}\n")


# each ran with exit 0: only verify reads the config seed, and True == 1
@pytest.mark.parametrize("command, cfg, field_path, message", [
    ("minimize", {**minimal_ppa_config(), "seed": "x"}, "config.seed", "only verify reads a seed"),
    ("minimize", {**minimal_ppa_config(), "seed": 0}, "config.seed", "only verify reads a seed"),
    ("solve-ep", {**ep_config(), "seed": 0}, "config.seed", "only verify reads a seed"),
    ("sweep", {**_sweep_cfg(), "seed": 0}, "config.seed", "only verify reads a seed"),
    ("dynamics", {**_dynamics_cfg(), "seed": 0}, "config.seed", "only verify reads a seed"),
    ("minimize", {**minimal_ppa_config(), "schema_version": True}, "config.schema_version",
     "unsupported version True"),
], ids=["minimize-string", "minimize", "solve-ep", "sweep", "dynamics", "schema_version-true"])
def test_cli_top_level_key_a_command_does_not_read_is_schema_error(tmp_path, capsys, command, cfg,
                                                                     field_path, message):
    path = write_cfg(tmp_path, cfg)
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    assert capsys.readouterr().err == f"schema error: {field_path}: {message}\n"


# every command ran with exit 0 and ignored a section it does not read, whatever it held
UNREAD_SECTIONS = {"algorithm": {"variant": "bogus"}, "sweep": 3, "dynamics": "not even an object",
                   "verify": {"checks": [{"check": "bogus"}]}, "seed": "x"}
COMMAND_CONFIGS = {"minimize": (minimal_ppa_config, {"algorithm"}),
                   "solve-ep": (ep_config, {"algorithm"}),
                   "sweep": (_sweep_cfg, {"algorithm", "sweep"}),
                   "verify": (_verify_cfg, {"verify", "seed"}),
                   "dynamics": (_dynamics_cfg, {"dynamics"})}


@pytest.mark.parametrize("command", sorted(COMMAND_CONFIGS))
def test_cli_section_a_command_does_not_read_is_schema_error(tmp_path, capsys, command):
    make, reads = COMMAND_CONFIGS[command]
    for section in sorted(set(UNREAD_SECTIONS) - reads):
        path = write_cfg(tmp_path, {**make(), section: UNREAD_SECTIONS[section]})
        assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
        err = capsys.readouterr().err
        assert err.startswith(f"schema error: config.{section}: ") and err.count("\n") == 1, err
    assert cli_main([command, "--config", write_cfg(tmp_path, make()),
                     "--out", str(tmp_path / "o")]) == EXIT_OK


def test_ep_sweep_from_rippa_ep_drops_its_keys_in_the_baseline(tmp_path, capsys):
    # the PPA_EP baseline cell kept the base's alpha/rho keys and the sweep exited 1
    cfg = ep_config()
    cfg["algorithm"].update(variant="RIPPA_EP", alpha=0.1, rho_lo=0.9, rho_hi=0.9)
    cfg["sweep"] = {"alphas": [0.1], "rhos": [0.9]}
    path = write_cfg(tmp_path, cfg)
    assert cli_main(["sweep", "--config", path, "--out", str(tmp_path / "sw")]) == EXIT_OK
    baseline = json.loads(capsys.readouterr().out)["rows"][-1]
    assert baseline["cell"] == "baseline" and baseline["converged"]


@pytest.mark.parametrize("args", [
    [],
    ["bogus"],
    ["minimize"],
    ["minimize", "--config", "{cfg}", "--seed", "3"],
    ["solve-ep", "--config", "{cfg}", "--workers", "2"],
    ["sweep", "--config", "{cfg}", "--workers", "two"],
    ["verify", "--config", "{cfg}", "--mystery"],
])
def test_cli_usage_error_exits_1_with_one_line(tmp_path, capsys, args):
    path = write_cfg(tmp_path, minimal_ppa_config())
    argv = [a.format(cfg=path) for a in args]
    assert cli_main(argv) == EXIT_SCHEMA
    err = capsys.readouterr().err.strip()
    assert err.startswith("usage error: sqopt") and "\n" not in err


def test_cli_seed_is_a_verify_flag(tmp_path, capsys):
    cfg = {
        "schema_version": 1,
        "problem": {"kind": "minimize",
                    "objective": {"catalog": "gauss_well",
                                  "params": {"c": 1.0, "d": 1.0, "delta": 1.0}}},
        "verify": {"checks": [{"check": "sqc", "n": 200}]},
    }
    path = write_cfg(tmp_path, cfg)
    assert cli_main(["verify", "--config", path, "--out", str(tmp_path / "v"), "--seed", "3"]) == EXIT_OK
    # a negative seed exited 3 with NumPy's Philox message
    assert cli_main(["verify", "--config", path, "--out", str(tmp_path / "v"), "--seed", "-2"]) == EXIT_SCHEMA
    assert capsys.readouterr().err == "schema error: config.seed: must be >= 0, got -2\n"


# --- lockstep sweeps -------------------------------------------------------------

LOCKSTEP_SWEEPS = {
    # 2-D projected-gradient refine on a subgradient
    "power_norm_2d": (minimal_ppa_config(), [0.0, 0.1, 0.2], [0.8, 1.2]),
    # 1-D bracket search on the derivative, bounded by search_radius
    "sin_quad_1d": ({"schema_version": 1,
                     "problem": {"kind": "minimize",
                                 "objective": {"catalog": "sin_quad", "params": {}}},
                     "algorithm": {"variant": "PPA", "x0": [2.0], "c": 0.5, "stop_tol": 1e-8,
                                   "max_iters": 200, "search_radius": 4.0}},
                    [0.0, 0.1], [0.8, 1.2]),
    "value_gap_ep": (ep_config(), [0.0, 0.1], [0.9, 1.0]),
}


def _cell_spec(kind, base, row):
    """The algorithm spec of one sweep row, as run alone."""
    relaxed, plain = ("RIPPA", "PPA") if kind == "minimize" else ("RIPPA_EP", "PPA_EP")
    if row["alpha"] == 0.0 and row["rho"] == 1.0:
        return {**base, "variant": plain}
    return {**base, "variant": relaxed, "alpha": row["alpha"], "rho_lo": row["rho"],
            "rho_hi": row["rho"]}


@pytest.mark.parametrize("name", sorted(LOCKSTEP_SWEEPS))
def test_lockstep_sweep_matches_cells_run_alone(tmp_path, monkeypatch, name):
    base, alphas, rhos = LOCKSTEP_SWEEPS[name]
    cfg = {**base, "sweep": {"alphas": alphas, "rhos": rhos}}
    stacks = []
    solve = mz.StackKey.solve
    monkeypatch.setattr(mz.StackKey, "solve", lambda key, C: stacks.append(len(C)) or solve(key, C))
    table = sweep_compare(cfg, tmp_path / "lockstep")
    kind, obj, K = build_problem(cfg["problem"])
    n_cells = len(alphas) * len(rhos) + 1
    if kind == "minimize":  # the first round is one stack of every cell
        assert stacks[0] == n_cells and len(stacks) <= max(r["iterations"] for r in table["rows"])
    else:  # equilibrium requests are solved one at a time
        assert stacks == []
    for row in table["rows"]:
        trace, _ = run_algorithm(kind, obj, K, _cell_spec(kind, cfg["algorithm"], row))
        write_trace_csv(tmp_path / "alone.csv", trace, is_ep=(kind == "ep"))
        emitted = tmp_path / "lockstep" / f"{row['cell']}_trace.csv"
        assert emitted.read_bytes() == (tmp_path / "alone.csv").read_bytes(), row["cell"]
        assert (row["iterations"], row["subproblem_evals"]) == (trace.iterations, trace.prox_evals)
    # the same sweep with its cells driven one after another
    drive_many = mz._drive_many
    monkeypatch.setattr(mz, "_drive_many", lambda runs: [drive_many([r])[0] for r in runs])
    assert sweep_compare(cfg, tmp_path / "one_by_one") == table
    for emitted in ("sweep.json", "sweep.csv"):
        assert ((tmp_path / "lockstep" / emitted).read_bytes()
                == (tmp_path / "one_by_one" / emitted).read_bytes())


def test_lockstep_sweep_cell_that_raises_mid_run_is_its_own_error_row(tmp_path, monkeypatch):
    cfg = sweep_config([0.0, 0.1, 0.2], [0.8, 1.2])
    clean = sweep_compare(cfg, tmp_path / "clean")
    start_rippa = mz.start_rippa

    def fail_at_fourth_request(run):
        request = next(run)
        for _ in range(3):
            request = run.send((yield request))
        raise RuntimeError("injected failure")

    def start(h, K, p, x0):
        run = start_rippa(h, K, p, x0)
        return fail_at_fourth_request(run) if (p.alpha, p.rho_lo) == (0.1, 0.8) else run

    monkeypatch.setattr(mz, "start_rippa", start)
    table = sweep_compare(cfg, tmp_path / "faulty")
    rows = {r["cell"]: r for r in table["rows"]}
    assert rows.pop("cell_1_0") == {"cell": "cell_1_0", "alpha": 0.1, "rho": 0.8,
                                    "error": "injected failure", "converged": False,
                                    "guarded": False, "iterations": None,
                                    "subproblem_evals": None}
    assert not (tmp_path / "faulty" / "cell_1_0_trace.csv").exists()
    for row in clean["rows"]:
        if row["cell"] != "cell_1_0":
            assert rows[row["cell"]] == row
            trace = f"{row['cell']}_trace.csv"
            faulty, clean_trace = tmp_path / "faulty" / trace, tmp_path / "clean" / trace
            assert faulty.read_bytes() == clean_trace.read_bytes()


def test_sweep_checks_every_cell_before_any_runs(tmp_path, monkeypatch):
    started = []
    monkeypatch.setattr(mz, "_drive_many", lambda runs: started.append(runs) or [])
    with pytest.raises(SchemaError, match="alpha"):
        sweep_compare(sweep_config([0.0, 1.5], [1.0]), tmp_path)
    assert started == [] and not list(tmp_path.glob("*_trace.csv"))


# --- set and catalog-parameter specs -------------------------------------------------

def _minimize_cfg(objective, set_spec=None):
    problem = {"kind": "minimize", "objective": objective}
    if set_spec is not None:
        problem["set"] = set_spec
    return {"schema_version": 1, "problem": problem,
            "algorithm": {"variant": "PPA", "x0": [0.5], "max_iters": 5}}


def _ep_cfg(catalog_name, params):
    return {"schema_version": 1,
            "problem": {"kind": "ep", "bifunction": {"catalog": catalog_name, "params": params}},
            "algorithm": {"variant": "PPA_EP", "x0": [0.5], "max_iters": 3}}


GAUSS_WELL = {"catalog": "gauss_well", "params": {}}


def _quad_fractional(K):
    return {"catalog": "quad_fractional",
            "params": {"A": [[2.0]], "a": [0.0], "alpha": 1.0, "B": [[0.0]], "b": [0.0],
                       "beta": 1.0, "K": K, "m": 0.5, "M": 2.0}}


# each ended in a traceback, exited 3, or named the wrong path or no key
SPEC_ERRORS = [
    (_minimize_cfg(GAUSS_WELL, 3), "problem.set", "expected an object"),
    (_minimize_cfg(GAUSS_WELL, {"kind": "box", "hi": [1.0]}), "problem.set",
     "missing required key 'lo'"),
    (_minimize_cfg(_quad_fractional(3)), "problem.objective.params.K", "expected an object"),
    (_minimize_cfg(_quad_fractional({"kind": "nope"})), "problem.objective.params.K",
     "unknown feasible set kind"),
    (_minimize_cfg(_quad_fractional({"kind": "box", "hi": [1.0]})),
     "problem.objective.params.K", "missing required key 'lo'"),
    (_ep_cfg("glt_example", {"K": 3}), "problem.bifunction.params.K", "expected an object"),
    (_ep_cfg("glt_example", {"K": {"kind": "nope"}}), "problem.bifunction.params.K",
     "unknown feasible set kind"),
    (_minimize_cfg({"catalog": "gauss_well", "params": "x"}), "problem.objective.params",
     "expected an object"),
    (_minimize_cfg({"catalog": "gauss_well", "params": [1]}), "problem.objective.params",
     "expected an object"),
    (_minimize_cfg({"catalog": "gauss_well", "params": None}), "problem.objective.params",
     "expected an object"),
    (_ep_cfg("glt_example", "x"), "problem.bifunction.params", "expected an object"),
    (_ep_cfg("value_gap", [1]), "problem.bifunction.params", "expected an object"),
    (_minimize_cfg({"catalog": "gauss_well", "params": {"d": "x"}}),
     "problem.objective.params.d", "expected a finite number"),
    (_ep_cfg("glt_example", {"p": "x"}), "problem.bifunction.params.p", "expected a finite number"),
    (_ep_cfg("value_gap", {"objective": {"catalog": "gauss_well", "params": {"d": [1]}}}),
     "problem.bifunction.params.objective.params.d", "expected a finite number"),
]


@pytest.mark.parametrize("cfg, field_path, message", SPEC_ERRORS,
                         ids=[f"{p}-{m.split()[-1]}" for _, p, m in SPEC_ERRORS])
def test_cli_bad_set_or_params_spec_is_one_schema_error_line(tmp_path, capsys, cfg, field_path,
                                                             message):
    command = "solve-ep" if cfg["problem"]["kind"] == "ep" else "minimize"
    path = write_cfg(tmp_path, cfg)
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: {field_path}: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err


# --- integer fields, unconstrained methods, known solutions ---------------------

# one integer field of each kind; each fractional or boolean value was truncated
# by int() (max_iters 2.7 ran 2 iterations, power_norm n 2.5 ran as n = 2)
INTEGER_FIELDS = [
    ("minimize", variant_config("PPA", max_iters=2.7), "algorithm.max_iters"),
    ("minimize", variant_config("PPA", max_iters=True), "algorithm.max_iters"),
    ("minimize", variant_config("PPA", prox={"n_starts": 2.5}), "algorithm.prox.n_starts"),
    ("minimize", _minimize_cfg({"catalog": "power_norm", "params": {"n": 2.5}}),
     "problem.objective.params.n"),
    ("minimize", _minimize_cfg(GAUSS_WELL, {"kind": "full_space", "dim": 1.7}), "problem.set.dim"),
    ("minimize", _minimize_cfg(GAUSS_WELL, {"kind": "full_space", "dim": True}), "problem.set.dim"),
    ("verify", _verify_cfg(n=10.9), "config.verify.checks[0].n"),
    ("verify", {**_verify_cfg(), "seed": 1.5}, "config.seed"),
]


@pytest.mark.parametrize("command, cfg, field_path", INTEGER_FIELDS,
                         ids=[f"{p}-{i}" for i, (_, _, p) in enumerate(INTEGER_FIELDS)])
def test_cli_integer_field_rejects_fractional_and_boolean_values(tmp_path, capsys, command, cfg,
                                                                 field_path):
    path = write_cfg(tmp_path, cfg)
    assert cli_main([command, "--config", path, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: {field_path}: expected an integer, got ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_cli_integer_field_accepts_an_integral_float(tmp_path, capsys):
    path = write_cfg(tmp_path, variant_config("PPA", max_iters=2.0, stop_tol=1e-300))
    assert cli_main(["minimize", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_MAX_ITERS
    assert json.loads(capsys.readouterr().out)["iterations"] == 2


# gauss_well on [0.3, 1]: GRAD from 0.5 ended at 4e-9, outside the set, with exit 0
BOX_0_3 = {"kind": "box", "lo": [0.3], "hi": [1.0]}


@pytest.mark.parametrize("variant", ["GRAD", "HEAVY_BALL", "INERTIAL_GM"])
def test_cli_gradient_method_with_a_set_is_schema_error(tmp_path, capsys, variant):
    cfg = variant_config(variant, **({"eta_min": 0.01} if variant == "INERTIAL_GM" else {}))
    cfg["problem"]["set"] = BOX_0_3
    path = write_cfg(tmp_path, cfg)
    assert cli_main(["minimize", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err == f"schema error: algorithm: {variant} is unconstrained: it takes no problem.set\n"


def test_cli_dynamics_with_a_set_is_schema_error(tmp_path, capsys):
    cfg = _dynamics_cfg()
    cfg["problem"]["set"] = BOX_0_3
    path = write_cfg(tmp_path, cfg)
    assert cli_main(["dynamics", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err == ("schema error: config.problem.set: dynamics is unconstrained: "
                   "it takes no problem.set\n")


def test_distance_to_known_solution_is_null_when_the_known_minimizer_is_outside_the_set(tmp_path):
    # the unconstrained minimizer 0 is not in [0.3, 1], whose solution is 0.3
    cfg = variant_config("PPA", c={"kind": "constant", "value": 0.5}, stop_tol=1e-8)
    cfg["problem"]["set"] = BOX_0_3
    summary, code, _ = run_from_config(cfg, tmp_path / "o")
    assert code == EXIT_OK and summary.final_value == pytest.approx(1.0 - np.exp(-0.09))
    assert summary.distance_to_known_solution is None and summary.rate_estimate is None
    cfg["problem"]["set"] = {"kind": "box", "lo": [-0.5], "hi": [1.0]}  # 0 is in this one
    summary, code, _ = run_from_config(cfg, tmp_path / "o")
    assert code == EXIT_OK and summary.distance_to_known_solution <= 1e-6


@pytest.mark.parametrize("variant", sorted(v for v, e in VARIANTS.items() if e.kind == "ep"))
def test_problem_set_reaches_every_ep_variant_and_its_certificate(tmp_path, capsys, variant):
    # the value gap of gauss_well on [0.3, 1] is solved at 0.3; a run or a
    # certificate on the bifunction's domain [-1, 1] would see the solution 0
    # instead, where the certificate at 0.3 is h(0) - h(0.3), about -0.086
    cfg = ep_config()
    cfg["problem"]["set"] = BOX_0_3
    cfg["algorithm"]["variant"] = variant
    if variant in ("EG_EP", "PEG_EP"):
        cfg["algorithm"].update(steps={"kind": "inv_k", "value": 0.8}, stop_tol=5e-3,
                                max_iters=4000)
    path = write_cfg(tmp_path, cfg)
    assert cli_main(["solve-ep", "--config", path, "--out", str(tmp_path / "e")]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["final_value"] == -0.4690731190482871  # h(0.3) - h(0.9)
    assert summary["distance_to_known_solution"] is None
    rows = list(csv.DictReader((tmp_path / "e" / "trace.csv").read_text().splitlines()))
    assert float(rows[-1]["residual_ep"]) == 0.0
