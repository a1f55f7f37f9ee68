"""Every config key is read: exact key sets per variant, per check and per set kind."""

import copy
import json
import os
import re
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import sqopt
from conftest import declared_kinds
from sqopt.cli import main as cli_main
from sqopt.equilibrium import EpParams
from sqopt.fields import config_keys
from sqopt.functions import _BUILDERS
from sqopt.harness import (_BIFUNCTIONS, _CHECK_KINDS, _COMMON_KEYS, _DYNAMICS_KINDS, _RUN_KINDS,
                           _SEED, _SWEEP_KINDS, CHECKS, EXIT_MAX_ITERS, EXIT_OK, EXIT_SCHEMA,
                           SETS, VARIANTS, _build_set, _SET, keys_read, param_kinds)
from sqopt.minimize import MinParams
from sqopt.prox import GlobalSolveConfig

README = Path(__file__).resolve().parents[1] / "README.md"

GAUSS_WELL = {"catalog": "gauss_well", "params": {}}
VALUE_GAP = {"catalog": "value_gap", "params": {"objective": GAUSS_WELL}}
PROBLEMS = {"minimize": {"kind": "minimize", "objective": GAUSS_WELL},
            "ep": {"kind": "ep", "bifunction": VALUE_GAP}}

# a value of each algorithm key that every variant reading the key accepts
ALGORITHM_VALUES = {
    "c": 0.5, "alpha": 0.1, "rho_lo": 1.0, "rho_hi": 1.0, "bregman": {"name": "half_sq_norm"},
    "steps": 0.1, "beta": 1.0, "theta": 0.5, "hb_eta": 0.1, "eta_min": 0.01, "x1": [0.4],
    "prox": {"grid_density": 401}, "search_radius": 2.0, "policy": "corrected",
    "inner_max": 10, "epsilon": 0.01, "ls_alpha": 0.5, "ls_rho": 0.5,
}

# a value of each check key that every check reading the key accepts (1-D problems)
CHECK_VALUES = {"gamma": 0.5, "n": 10, "seed": 1, "radius": 2.0, "radii": [10.0, 100.0],
                "xbar": [0.5], "z": [0.0], "beta": 1.0, "lip": 1.0}

# every key some variant accepts; x1, search_radius and prox were once accepted by all
OFFERED_ALGORITHM_KEYS = {"x1", "search_radius", "prox"}.union(*(v.keys for v in VARIANTS.values()))
UNREAD_ALGORITHM_KEYS = [(name, key) for name, v in sorted(VARIANTS.items())
                         for key in sorted(OFFERED_ALGORITHM_KEYS - v.keys)]
UNREAD_CHECK_KEYS = [(kind, name, key) for kind, table in sorted(CHECKS.items())
                     for name, call in sorted(table.items())
                     for key in sorted(set(CHECK_VALUES) - set(keys_read(call)))]


def _cli(tmp_path, command, cfg) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return cli_main([command, "--config", str(path), "--out", str(tmp_path / "o")])


def _algorithm_cfg(variant, **keys):
    kind = VARIANTS[variant].kind
    algo = {"variant": variant, "x0": [0.5], "max_iters": 0, **keys}
    return ("solve-ep" if kind == "ep" else "minimize",
            {"schema_version": 1, "problem": PROBLEMS[kind], "algorithm": algo})


def test_value_tables_cover_every_key():
    assert set(ALGORITHM_VALUES) == OFFERED_ALGORITHM_KEYS
    assert set(CHECK_VALUES) == {key for table in CHECKS.values() for call in table.values()
                                 for key in keys_read(call)}


@pytest.mark.parametrize("variant, key", UNREAD_ALGORITHM_KEYS)
def test_variant_rejects_a_key_it_does_not_read(tmp_path, capsys, variant, key):
    command, cfg = _algorithm_cfg(variant, **{key: ALGORITHM_VALUES[key]})
    assert _cli(tmp_path, command, cfg) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: algorithm: unknown keys [{key!r}]; allowed: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_variant_accepts_every_key_it_reads(tmp_path, capsys, variant):
    keys = {key: ALGORITHM_VALUES[key] for key in VARIANTS[variant].keys}
    if variant == "INERTIAL_GM":
        keys["eta_min"] = 0.01  # its validator needs a positive lower step bound
    command, cfg = _algorithm_cfg(variant, **keys)
    assert _cli(tmp_path, command, cfg) == EXIT_MAX_ITERS
    assert capsys.readouterr().err.startswith("stopped: max_iters reached after 0 iterations")


@pytest.mark.parametrize("kind, check, key", UNREAD_CHECK_KEYS)
def test_check_rejects_a_key_it_does_not_read(tmp_path, capsys, kind, check, key):
    cfg = {"schema_version": 1, "problem": PROBLEMS[kind],
           "verify": {"checks": [{"check": check, key: CHECK_VALUES[key]}]}}
    assert _cli(tmp_path, "verify", cfg) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: config.verify.checks[0]: unknown keys [{key!r}]; ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("kind, check", [(kind, name) for kind, table in sorted(CHECKS.items())
                                         for name in sorted(table)])
def test_check_accepts_every_key_it_reads(tmp_path, capsys, kind, check):
    keys = {key: CHECK_VALUES[key] for key in keys_read(CHECKS[kind][check])}
    cfg = {"schema_version": 1, "problem": PROBLEMS[kind],
           "verify": {"checks": [{"check": check, **keys}]}}
    # gauss_well has no ray that leaves its box, so supercoercivity is inapplicable (exit 3)
    assert _cli(tmp_path, "verify", cfg) in (EXIT_OK, 3)
    assert not capsys.readouterr().err.startswith("schema error")


def test_prox_search_radius_is_no_second_spelling(tmp_path, capsys):
    command, cfg = _algorithm_cfg("PPA", prox={"search_radius": 2.0})
    assert _cli(tmp_path, command, cfg) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith(
        "schema error: algorithm.prox: unknown keys ['search_radius']; ")


def test_unbounded_set_needs_the_radius_of_every_entry_that_accepts_one(tmp_path, capsys):
    line = {"kind": "full_space", "dim": 1}
    for variant, v in sorted(VARIANTS.items()):
        command, cfg = _algorithm_cfg(variant, **({"eta_min": 0.01} if variant == "INERTIAL_GM"
                                                  else {}))
        cfg["problem"] = {**cfg["problem"], "set": line}
        code = _cli(tmp_path, command, cfg)
        err = capsys.readouterr().err
        if "search_radius" in v.keys:
            assert code == EXIT_SCHEMA and "missing required key 'search_radius'" in err, variant
        else:  # the gradient methods are unconstrained and take no set at all
            assert code == EXIT_SCHEMA and "takes no problem.set" in err, variant
    for name, call in sorted(CHECKS["minimize"].items()):
        cfg = {"schema_version": 1, "problem": {**PROBLEMS["minimize"], "set": line},
               "verify": {"checks": [{"check": name}]}}
        code = _cli(tmp_path, "verify", cfg)
        err = capsys.readouterr().err
        if "radius" in keys_read(call):
            assert code == EXIT_SCHEMA and "missing required key 'radius'" in err, name
        else:
            assert not err.startswith("schema error"), name


def test_sweep_rejects_a_base_key_that_no_cell_reads(tmp_path, capsys):
    # every cell dropped the keys of other variants, so a GRAD base's steps ran unread
    _, cfg = _algorithm_cfg("GRAD", steps=0.1, max_iters=50)
    cfg["sweep"] = {"alphas": [0.1], "rhos": [1.0]}
    assert _cli(tmp_path, "sweep", cfg) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("schema error: algorithm: unknown keys ['steps']; ")


# --- set specs and catalog parameters -------------------------------------------------


def _minimize_cfg(objective, set_spec=None):
    problem = {"kind": "minimize", "objective": objective}
    if set_spec is not None:
        problem["set"] = set_spec
    return "minimize", {"schema_version": 1, "problem": problem,
                        "algorithm": {"variant": "PPA", "x0": [0.5], "max_iters": 5}}


def _ep_cfg(bifunction, set_spec=None):
    problem = {"kind": "ep", "bifunction": bifunction}
    if set_spec is not None:
        problem["set"] = set_spec
    return "solve-ep", {"schema_version": 1, "problem": problem,
                        "algorithm": {"variant": "PPA_EP", "x0": [0.5], "max_iters": 3}}


GLT = {"catalog": "glt_example", "params": {"p": 2, "q": 2}}
BOX_2D = {"kind": "box", "lo": [0.0, 0.0], "hi": [4.0, 4.0]}
INF, NAN = float("inf"), float("nan")


def _quad_fractional_cfg(**bad):
    """A valid 2-D quad_fractional problem with the parameters ``bad`` put in."""
    params = {"A": [[2.0, 0.0], [0.0, 2.0]], "a": [0.0, 0.0], "alpha": 1.0,
              "B": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 0.0], "beta": 1.0, "K": BOX_2D,
              "m": 0.5, "M": 2.0}
    return _minimize_cfg({"catalog": "quad_fractional", "params": {**params, **bad}})


# each exited 3 (with a NumPy message or several stderr lines), ran with a key
# or a non-finite value unread (some printing NumPy RuntimeWarnings), or exited
# 1 with a NumPy message
PROBLEM_DEFECTS = {
    "set_dim_gauss_well": (_minimize_cfg(GAUSS_WELL, BOX_2D), "problem.set", "dimension 2"),
    "set_dim_glt": (_ep_cfg(GLT, BOX_2D), "problem.set", "dimension 2"),
    "K_dim_glt": (_ep_cfg({"catalog": "glt_example", "params": {"n": 1, "K": BOX_2D}}),
                  "problem.bifunction", "K has dimension 2, not n = 1"),
    "K_dim_quad_fractional": (
        _minimize_cfg({"catalog": "quad_fractional",
                       "params": {"A": [[2.0]], "a": [0.0], "alpha": 1.0, "B": [[0.0]],
                                  "b": [0.0], "beta": 1.0, "K": BOX_2D, "m": 0.5, "M": 2.0}}),
        "problem.objective", "K has dimension 2, not 1"),
    "full_space_dim": (_minimize_cfg(GAUSS_WELL, {"kind": "full_space", "dim": -3}),
                       "problem.set", "dimension must be at least 1, got -3"),
    "box_unread_key": (_minimize_cfg(GAUSS_WELL, {"kind": "box", "lo": [-1], "hi": [1],
                                                  "bogus": 1}),
                       "problem.set", "unknown keys ['bogus']"),
    "ball_unread_key": (_minimize_cfg(GAUSS_WELL, {"kind": "ball", "center": [0], "radius": 1,
                                                   "lo": [0]}),
                        "problem.set", "unknown keys ['lo']"),
    "affine_mixed_forms": (_minimize_cfg(GAUSS_WELL, {"kind": "affine", "normal": [1.0],
                                                      "value": 0.0, "offset": [0.0]}),
                           "problem.set", "unknown keys ['offset']"),
    "affine_basis_unread_key": (_minimize_cfg(GAUSS_WELL, {"kind": "affine", "basis": [[]],
                                                           "offset": [0.0], "value": 0.0}),
                                "problem.set", "unknown keys ['value']"),
    "K_unread_key": (_ep_cfg({"catalog": "glt_example",
                              "params": {"K": {"kind": "box", "lo": [0], "hi": [4], "x": 1}}}),
                     "problem.bifunction.params.K", "unknown keys ['x']"),
    "value_gap_unread_key": (_ep_cfg({**VALUE_GAP, "params": {"objective": GAUSS_WELL, "K": 3}}),
                             "problem.bifunction.params", "unknown keys ['K']"),
    "gauss_well_d_nan": (_minimize_cfg({"catalog": "gauss_well", "params": {"d": NAN}}),
                         "problem.objective.params.d", "expected a finite number, got nan"),
    "gauss_well_delta_inf": (_minimize_cfg({"catalog": "gauss_well", "params": {"delta": INF}}),
                             "problem.objective.params.delta", "expected a finite number"),
    "box_lo_inf": (_minimize_cfg(GAUSS_WELL, {"kind": "box", "lo": [-INF], "hi": [1]}),
                   "problem.set.lo[0]", "expected a finite number, got -inf"),
    "ball_radius_inf": (_minimize_cfg(GAUSS_WELL, {"kind": "ball", "center": [0],
                                                   "radius": INF}),
                        "problem.set.radius", "expected a finite number, got inf"),
    # halfwidth 0 ran with an infinite modulus and a NumPy RuntimeWarning
    "power_norm_halfwidth_0": (_minimize_cfg({"catalog": "power_norm",
                                              "params": {"halfwidth": 0}}),
                               "problem.objective", "power_norm requires halfwidth > 0"),
    "power_norm_halfwidth_negative": (_minimize_cfg({"catalog": "power_norm",
                                                     "params": {"halfwidth": -1}}),
                                      "problem.objective", "power_norm requires halfwidth > 0"),
    "glt_p_inf": (_ep_cfg({"catalog": "glt_example", "params": {"p": INF}}),
                  "problem.bifunction.params.p", "expected a finite number, got inf"),
    "value_gap_objective_nan": (
        _ep_cfg({**VALUE_GAP, "params": {"objective": {"catalog": "gauss_well",
                                                       "params": {"c": NAN}}}}),
        "problem.bifunction.params.objective.params.c", "expected a finite number"),
    # a of length 3 exited 3 on NumPy's broadcast text, and a 2x3 A exited 1 on it
    "quad_fractional_A_not_square": (_quad_fractional_cfg(A=[[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]]),
                                     "problem.objective",
                                     "A must be a square matrix, got shape (2, 3)"),
    "quad_fractional_a_length": (_quad_fractional_cfg(a=[0.0, 0.0, 0.0]), "problem.objective",
                                 "a must have shape (2,) to match A, got (3,)"),
    "quad_fractional_B_shape": (_quad_fractional_cfg(B=[[0.0]]), "problem.objective",
                                "B must have shape (2, 2) to match A, got (1, 1)"),
    "quad_fractional_b_length": (_quad_fractional_cfg(b=[0.0]), "problem.objective",
                                 "b must have shape (2,) to match A, got (1,)"),
    # both named m, the lower denominator bound
    "quad_fractional_n_check_0": (_quad_fractional_cfg(n_check=0), "problem.objective",
                                  "n_check must be at least 1, got 0"),
    "quad_fractional_n_check_negative": (_quad_fractional_cfg(n_check=-3), "problem.objective",
                                         "n_check must be at least 1, got -3"),
}


@pytest.mark.parametrize("name", sorted(PROBLEM_DEFECTS))
def test_problem_defect_is_one_schema_error_line(tmp_path, capsys, name):
    (command, cfg), field_path, message = PROBLEM_DEFECTS[name]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))  # NaN and Infinity, as Python's JSON writes and reads them
    assert cli_main([command, "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: {field_path}: ") and message in err, err
    assert err.count("\n") == 1 and "Traceback" not in err


# a valid spec of each set form and quad_fractional's parameters, all two-dimensional
SET_FORMS = {
    "box": {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
    "ball": {"kind": "ball", "center": [0.0, 0.0], "radius": 1.0},
    "affine": {"kind": "affine", "normal": [1.0, 2.0], "value": 1.0},
    "affine_basis": {"kind": "affine", "basis": [[0.6], [0.8]], "offset": [0.0, 0.0]},
    "halfspaces": {"kind": "halfspaces", "normals": [[1.0, 0.0], [0.0, 1.0]],
                   "bounds": [1.0, 1.0]},
}
QUAD_FRACTIONAL_NUMBERS = {"A": [[2.0, 0.0], [0.0, 2.0]], "a": [0.0, 0.0], "alpha": 1.0,
                           "B": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 0.0], "beta": 1.0}


def _number_site_cfg(where, key):
    """A 2-D PPA config with the set form or quad_fractional's parameter ``where``, and the
    path of the first number under ``key`` with the list holding it."""
    objective = {"catalog": "euclid_norm", "params": {"n": 2, "gamma": 0.2}}
    problem = {"kind": "minimize", "objective": objective}
    if where == "quad_fractional":
        params = {**copy.deepcopy(QUAD_FRACTIONAL_NUMBERS), "K": SET_FORMS["box"], "m": 0.5,
                  "M": 2.0}
        problem["objective"], holder, path = ({"catalog": "quad_fractional", "params": params},
                                              params, "problem.objective.params")
    else:
        holder = problem["set"] = copy.deepcopy(SET_FORMS[where])
        path = "problem.set"
    path += "." + key
    while isinstance(holder[key], list):
        holder, key, path = holder[key], 0, path + "[0]"
    cfg = {"schema_version": 1, "problem": problem,
           "algorithm": {"variant": "PPA", "x0": [0.1, 0.1], "max_iters": 0,
                         "search_radius": 2.0}}
    return cfg, holder, key, path


NUMBER_SITES = [(where, key) for where, spec in SET_FORMS.items() for key in spec if key != "kind"]
NUMBER_SITES += [("quad_fractional", key) for key in QUAD_FRACTIONAL_NUMBERS]


def test_number_sites_are_every_number_key_of_the_set_table():
    covered = {(SET_FORMS[where]["kind"], key) for where, key in NUMBER_SITES
               if where in SET_FORMS}
    assert covered == {(kind, key) for kind, forms in SETS.items() for _, kinds in forms
                       for key, k in kinds.items() if k.name in ("number", "array")}


@pytest.mark.parametrize("where, key", NUMBER_SITES)
def test_a_boolean_or_a_numeric_string_at_a_number_site_is_one_schema_error_line(
        tmp_path, capsys, where, key):
    # each was read as the number it stands for (true as 1): most ran, and the others were
    # refused for what that number made of the set or the objective
    cfg, _, _, _ = _number_site_cfg(where, key)
    assert _cli(tmp_path, "minimize", cfg) == EXIT_MAX_ITERS
    capsys.readouterr()
    for bad in (True, "1.0"):
        cfg, holder, leaf, path = _number_site_cfg(where, key)
        holder[leaf] = bad
        assert _cli(tmp_path, "minimize", cfg) == EXIT_SCHEMA
        assert capsys.readouterr().err == (
            f"schema error: {path}: expected a finite number, got {bad!r}\n")


# every parameter a config sets on each catalog and bifunction constructor, by its kind;
# value_gap's one parameter is an objective spec
CATALOG_PARAMETERS = {
    "abs_shift": {"a": "number", "gamma": "number"},
    "euclid_norm": {"n": "int", "gamma": "number", "halfwidth": "number"},
    "neg_quad": {}, "gauss_well": {"c": "number", "d": "number", "delta": "number"},
    "sin_quad": {}, "inv_gap": {}, "root_quartic": {"k": "number", "c": "number"},
    "power_norm": {"n": "int", "halfwidth": "number", "alpha": "number"},
    "quad_fractional": {"A": "array", "a": "array", "alpha": "number", "B": "array",
                        "b": "array", "beta": "number", "K": "set", "m": "number",
                        "M": "number", "n_check": "int"},
    "glt_example": {"p": "number", "q": "number", "n": "int", "K": "set"},
}


def test_every_catalog_parameter_maps_to_a_kind():
    makers = {**_BUILDERS, **_BIFUNCTIONS}
    assert set(makers) == set(CATALOG_PARAMETERS) | {"value_gap"}
    assert {name: {key: kind.name for key, kind in param_kinds(make).items()}
            for name, make in makers.items() if name != "value_gap"} == CATALOG_PARAMETERS


# each ran with exit 0, the key unread
@pytest.mark.parametrize("system, keys, unread", [
    ("ds1", {"v0": [3.0], "damping": 7.0}, "['damping', 'v0']"),
    ("ds2_undamped", {"damping": 7.0}, "['damping']"),
])
def test_a_dynamics_system_refuses_the_keys_it_does_not_read(tmp_path, capsys, system, keys,
                                                              unread):
    cfg = {"schema_version": 1, "problem": PROBLEMS["minimize"],
           "dynamics": {"system": system, "x0": [0.5], "T": 0.02, "dt": 0.01, **keys}}
    assert _cli(tmp_path, "dynamics", cfg) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith(f"schema error: config.dynamics: unknown keys {unread}; allowed: ")
    assert err.count("\n") == 1


def test_ds2_reads_v0_and_damping(tmp_path, capsys):
    cfg = {"schema_version": 1, "problem": PROBLEMS["minimize"],
           "dynamics": {"system": "ds2", "x0": [0.5], "v0": [0.1], "T": 0.02, "dt": 0.01,
                        "damping": 1.0}}
    assert _cli(tmp_path, "dynamics", cfg) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_only_neg_entropy_reads_a_bregman_shift(tmp_path, capsys):
    # half_sq_norm with a shift ran with exit 0, its trace the one without the shift
    for name, code in (("half_sq_norm", EXIT_SCHEMA), ("neg_entropy", EXIT_MAX_ITERS)):
        command, cfg = _algorithm_cfg("BPPA", bregman={"name": name, "shift": 5.0})
        assert _cli(tmp_path, command, cfg) == code
        err = capsys.readouterr().err
        assert err.startswith("schema error: algorithm.bregman: ") == (code == EXIT_SCHEMA)
        assert err.count("\n") == 1
    command, cfg = _algorithm_cfg("BPPA", bregman={"shift": 5.0})  # half_sq_norm by default
    assert _cli(tmp_path, command, cfg) == EXIT_SCHEMA
    assert capsys.readouterr().err.startswith("schema error: algorithm.bregman: ")


def test_an_affine_set_gives_the_same_trace_in_either_form(tmp_path, capsys):
    normal_form = {"kind": "affine", "normal": [1.0, 2.0], "value": 1.0}
    K = _build_set(normal_form, "set")
    traces = []
    for i, spec in enumerate([normal_form, {"kind": "affine", "basis": K.basis.tolist(),
                                            "offset": K.offset.tolist()}]):
        cfg = {"schema_version": 1,
               "problem": {"kind": "minimize", "set": spec,
                           "objective": {"catalog": "euclid_norm",
                                         "params": {"n": 2, "gamma": 0.2}}},
               "algorithm": {"variant": "PPA", "x0": [0.2, 0.4], "max_iters": 5,
                             "search_radius": 2.0}}
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        assert cli_main(["minimize", "--config", str(path), "--out", str(tmp_path / f"o{i}")]) in (
            EXIT_OK, EXIT_MAX_ITERS)
        traces.append((tmp_path / f"o{i}" / "trace.csv").read_bytes())
    capsys.readouterr()
    assert traces[0] == traces[1] and traces[0].count(b"\n") > 2


def test_a_ball_needs_no_search_radius_and_halfspaces_do(tmp_path, capsys):
    command, cfg = _algorithm_cfg("PPA", max_iters=3)
    cfg["problem"] = {**cfg["problem"], "set": {"kind": "ball", "center": [0.2], "radius": 0.5}}
    assert _cli(tmp_path, command, cfg) in (EXIT_OK, EXIT_MAX_ITERS)
    assert not capsys.readouterr().err.startswith("schema error")
    cfg["problem"]["set"] = {"kind": "halfspaces", "normals": [[1.0], [-1.0]],
                             "bounds": [0.7, 0.3]}
    assert _cli(tmp_path, command, cfg) == EXIT_SCHEMA
    assert capsys.readouterr().err == ("schema error: algorithm: missing required key "
                                       "'search_radius' (halfspaces has no bounding box)\n")


def test_verify_checks_must_be_a_list(tmp_path, capsys):
    # a number here was a TypeError traceback
    cfg = {"schema_version": 1, "problem": PROBLEMS["minimize"], "verify": {"checks": 3}}
    assert _cli(tmp_path, "verify", cfg) == EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err == "schema error: config.verify.checks: expected a list, got int\n"


# --- README ----------------------------------------------------------------------------


def _readme_table(header: str) -> dict:
    """The README table under ``header``: first cell -> (problem, set of keys)."""
    lines = README.read_text().splitlines()
    rows = {}
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        name, problem, keys = (cell.strip() for cell in line.strip("|").split("|"))
        rows[name.strip("`")] = (problem, set(re.findall(r"`([^`]+)`", keys)))
    return rows


def test_readme_key_tables_equal_the_registries():
    variants = _readme_table("| variant | problem | keys |")
    assert variants == {name: (v.kind, v.keys) for name, v in VARIANTS.items()}
    checks = _readme_table("| check | problem | keys |")
    assert checks == {name: (kind, set(keys_read(call)))
                      for kind, table in CHECKS.items() for name, call in table.items()}
    text = " ".join(README.read_text().split())
    common = re.search(r"Every variant accepts (.*?)\. Beyond", text).group(1)
    assert set(re.findall(r"`([^`]+)`", common)) == _COMMON_KEYS
    prox = re.search(r"an object with any of (.*?);", text).group(1)
    assert set(re.findall(r"`([^`]+)`", prox)) == set(config_keys(GlobalSolveConfig))


def test_paper_module_rows_equal_the_readme_rows():
    def rows(path):
        return [line for line in path.read_text().splitlines() if line.startswith("| `sqopt.")]

    readme = rows(README)
    assert len(readme) == 9 and rows(README.parent / "PAPER.md") == readme


def _describe(kind) -> str:
    """A declared kind as the README's field-kind table writes it."""
    bound = "" if kind.lo is None else f" {'>' if kind.strict else '>='} {kind.lo:g}"
    bound += "" if kind.hi is None else f" and <= {kind.hi}"
    return {"int": f"integer{bound}", "number": f"finite number{bound}",
            "numbers": f"list of at least {kind.at_least} finite numbers{bound}",
            "array": "finite number or nested lists of finite numbers", "set": "set spec",
            "enum": "one of " + ", ".join(kind.choices)}.get(kind.name, kind.name)


def test_readme_field_kind_table_equals_the_declarations():
    lines = README.read_text().splitlines()
    table = {}
    for line in lines[lines.index("| kind | fields |") + 2:]:
        if not line.startswith("|"):
            break
        kind, names = (cell.strip() for cell in line.strip("|").split("|"))
        table[kind] = set(re.findall(r"`([^`]+)`", names))
    declared = defaultdict(set)
    for section, kinds in [("algorithm", declared_kinds(MinParams)),
                           ("algorithm", declared_kinds(EpParams)), ("algorithm", _RUN_KINDS),
                           ("algorithm.prox", declared_kinds(GlobalSolveConfig)),
                           ("algorithm.bregman", _RUN_KINDS["bregman"].of),
                           ("verify.checks[]", _CHECK_KINDS), ("dynamics", _DYNAMICS_KINDS),
                           ("sweep", _SWEEP_KINDS), ("", {"seed": _SEED}),
                           ("set", {key: kind for forms in SETS.values() for _, kinds in forms
                                    for key, kind in kinds.items()}),
                           ("problem", {"set": _SET}),
                           *((name, param_kinds(make))
                             for name, make in {**_BUILDERS, **_BIFUNCTIONS}.items()
                             if name != "value_gap")]:
        for key, kind in kinds.items():
            declared[_describe(kind)].add(f"{section}.{key}".lstrip("."))
    assert table == declared


def test_readme_config_block_runs(tmp_path):
    block = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
    assert _cli(tmp_path, "minimize", json.loads(block)) == EXIT_OK


# the catalog entries in config form, with a point inside each domain
QUAD_FRACTIONAL = {"A": [[1.0, 0.0], [0.0, 1.0]], "a": [0.0, 0.0], "alpha": 0.0,
                   "B": [[0.0, 0.0], [0.0, 0.0]], "b": [0.0, 0.0], "beta": 1.0,
                   "K": {"kind": "box", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}, "m": 0.5, "M": 1.5}
ENTRIES = {"abs_shift": {"a": -0.3, "gamma": 2.0}, "euclid_norm": {"n": 2}, "neg_quad": {},
           "gauss_well": {}, "sin_quad": {}, "inv_gap": {}, "root_quartic": {"k": 1.0, "c": 2.0},
           "power_norm": {"n": 2}, "quad_fractional": QUAD_FRACTIONAL}
TWO_D = {"euclid_norm", "power_norm", "quad_fractional"}

# what needs a true gradient: these variants (EG_EP and PEG_EP on the entry's
# value gap), these checks and both flows
NEEDS_GRADIENT = {"SUBGRAD", "GRAD", "HEAVY_BALL", "INERTIAL_GM", "EG_EP", "PEG_EP",
                  "check foc", "check grad", "check pl", "flow ds1", "flow ds2"}
# the entries with no gradient, or with a subgradient that is not one
NOT_DIFFERENTIABLE = {"abs_shift", "euclid_norm", "inv_gap", "power_norm"}


def _refused_for_a_gradient(tmp_path, capsys, command, cfg) -> bool:
    _cli(tmp_path, command, cfg)
    return re.search(r"gradient|differentiable", capsys.readouterr().err) is not None


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_gradient_consumers_admit_the_differentiable_entries_only(tmp_path, capsys, name):
    # a subgradient on a kinked entry feeds the proximal solves and admits
    # nothing that needs a gradient: every refused pair is what it was
    # before those entries had a grad
    objective = {"catalog": name, "params": ENTRIES[name]}
    point = [0.1, 0.1] if name in TWO_D else [0.1]
    problems = {"minimize": {"kind": "minimize", "objective": objective},
                "ep": {"kind": "ep", "bifunction": {"catalog": "value_gap",
                                                    "params": {"objective": objective}}}}
    refused = set()
    for variant, v in VARIANTS.items():
        algo = {"variant": variant, "x0": point, "max_iters": 0,
                **{key: ALGORITHM_VALUES[key] for key in v.keys}}
        if "x1" in v.keys:
            algo["x1"] = point
        cfg = {"schema_version": 1, "problem": problems[v.kind], "algorithm": algo}
        if _refused_for_a_gradient(tmp_path, capsys, "solve-ep" if v.kind == "ep" else "minimize",
                                   cfg):
            refused.add(variant)
    for kind, table in CHECKS.items():
        for check, call in table.items():
            values = {key: point if key in ("xbar", "z") else CHECK_VALUES[key]
                      for key in keys_read(call)}
            cfg = {"schema_version": 1, "problem": problems[kind],
                   "verify": {"checks": [{"check": check, **values}]}}
            if _refused_for_a_gradient(tmp_path, capsys, "verify", cfg):
                refused.add(f"check {check}")
    for system in ("ds1", "ds2"):
        cfg = {"schema_version": 1, "problem": problems["minimize"],
               "dynamics": {"system": system, "x0": point, "T": 0.02, "dt": 0.01}}
        if _refused_for_a_gradient(tmp_path, capsys, "dynamics", cfg):
            refused.add(f"flow {system}")
    assert refused == (NEEDS_GRADIENT if name in NOT_DIFFERENTIABLE else set())


# --- what each command loads ----------------------------------------------------------
# each runs in a fresh interpreter, so set-up compiles only the modules the work needs

BACK_ENDS = {"sqopt.prox", "sqopt.minimize", "sqopt.equilibrium", "sqopt.verify", "sqopt.dynamics"}
TRIANGLE = {"kind": "halfspaces", "normals": [[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
            "bounds": [0.0, 0.0, 1.0]}


def _fresh_python(*argv) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(Path(sqopt.__file__).parents[1])}
    res = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                         timeout=120)
    assert res.returncode == 0, res.stderr[-2000:]
    return res


def _cli_loads(tmp_path, command, cfg) -> set:
    """The sqopt modules that ``python -m sqopt.cli`` imports to run ``cfg``."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    res = _fresh_python("-X", "importtime", "-m", "sqopt.cli", command, "--config", str(path),
                        "--out", str(tmp_path / "o"))
    names = (line.rsplit("|", 1)[-1].strip() for line in res.stderr.splitlines()
             if line.startswith("import time:"))
    return {name for name in names if name.split(".")[0] == "sqopt"}


def test_building_problems_loads_no_back_end():
    specs = [{"kind": "minimize", "objective": {"catalog": name, "params": params}}
             for name, params in ENTRIES.items()]
    specs += [{"kind": "ep", "bifunction": {"catalog": "glt_example", "params": {"n": n}}}
              for n in (1, 2)]
    specs += [PROBLEMS["ep"], {"kind": "minimize", "objective": {"catalog": "power_norm",
                                                                 "params": {"n": 2}},
                               "set": TRIANGLE}]
    code = ("import json, sys\nimport sqopt.harness\n"
            f"for spec in json.loads({json.dumps(specs)!r}):\n"
            "    sqopt.harness.build_problem(spec)\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'sqopt')))")
    loaded = json.loads(_fresh_python("-c", code).stdout)
    assert loaded == ["sqopt", "sqopt.fields", "sqopt.functions", "sqopt.geometry",
                      "sqopt.harness"]


@pytest.mark.parametrize("kind", ["minimize", "ep"])
def test_verify_command_loads_no_solver(tmp_path, kind):
    check = {"minimize": "sqc", "ep": "a0"}[kind]
    cfg = {"schema_version": 1, "problem": PROBLEMS[kind],
           "verify": {"checks": [{"check": check, "n": 50}]}}
    loaded = _cli_loads(tmp_path, "verify", cfg)
    assert "sqopt.verify" in loaded and not loaded & (BACK_ENDS - {"sqopt.verify"})


@pytest.mark.parametrize("command", ["minimize", "solve-ep", "sweep"])
def test_run_commands_do_not_load_dynamics(tmp_path, command):
    # a minimize run fits its rate against gauss_well's known minimizer
    kind = "ep" if command == "solve-ep" else "minimize"
    algo = {"variant": "PPA_EP", "beta": 1.0} if kind == "ep" else {"variant": "PPA", "c": 0.5}
    cfg = {"schema_version": 1, "problem": PROBLEMS[kind], "algorithm": {**algo, "x0": [0.7]}}
    if command == "sweep":
        cfg["sweep"] = {"alphas": [0.0, 0.1], "rhos": [1.0]}
    loaded = _cli_loads(tmp_path, command, cfg)
    assert "sqopt.minimize" in loaded and "sqopt.dynamics" not in loaded
    if command == "minimize":
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert summary["rate_estimate"]["q"] < 1.0


def test_dynamics_command_loads_no_solver_and_no_verify(tmp_path):
    cfg = {"schema_version": 1, "problem": PROBLEMS["minimize"],
           "dynamics": {"system": "ds1", "x0": [0.5], "T": 0.02, "dt": 0.01}}
    loaded = _cli_loads(tmp_path, "dynamics", cfg)
    assert "sqopt.dynamics" in loaded and not loaded & (BACK_ENDS - {"sqopt.dynamics"})
