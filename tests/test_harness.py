import json

import numpy as np
import pytest

from sqopt.cli import main as cli_main
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
    run_from_config,
    sweep_compare,
    validate_config,
)
from sqopt.minimize import IterationTrace


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
        "seed": 0,
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
        validate_config({"problem": {}})
    with pytest.raises(SchemaError, match="unsupported"):
        validate_config({"schema_version": 99, "problem": {}})


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
    cfg = sweep_config([0.0, 0.1], [1.0])
    a = sweep_compare(cfg, tmp_path / "w1", workers=1)
    b = sweep_compare(cfg, tmp_path / "w2", workers=3)
    assert a == b


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


# one hard-range violation per variant whose validator rejects some config;
# each of these but RIPPA's exited 3 as a guard abort before
HARD_RANGE_VIOLATIONS = {
    "PPA": {"c": -0.5},
    "RIPPA": {"alpha": 1.0},
    "BPPA": {"c": 0.0},
    "SUBGRAD": {"beta": 0.0},
    "GRAD": {"steps": -0.1},
    "HEAVY_BALL": {"hb_eta": 0.0},
    "INERTIAL_GM": {"eta_min": 0.0},
    "RIPPA_EP": {"alpha": 1.0},
    "REG_EP": {"beta": -1.0},
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


# malformed values under one algorithm key; before, six of these ended in a
# traceback, three aborted with exit 3 and three ran (the unknown bregman key,
# max_local_iters -1, an infinite seed)
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
]


@pytest.mark.parametrize("variant, algo", MALFORMED_VALUES)
def test_cli_malformed_algorithm_value_is_schema_error(tmp_path, capsys, variant, algo):
    path = write_cfg(tmp_path, variant_config(variant, **algo))
    assert cli_main(["minimize", "--config", path, "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"schema error: algorithm.{next(iter(algo))}") and "\n" not in err


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
