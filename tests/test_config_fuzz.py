"""Config fuzzer: every mutated config ends in a documented exit with one diagnostic line.

The seed configs are the README config block and every benchmark job config
(``perfbench/jobs.py``, loaded read-only).  Each round clips a seed's costly
knobs, applies one mutation chosen from the declared kind of a field, and
runs the CLI in-process.  The draws come from a Philox stream, as
``geometry.rng_for`` gives them, so a failing round reproduces from its number.
"""

import copy
import csv
import importlib.util
import json
import re
from pathlib import Path

from conftest import declared_kinds
from sqopt.cli import main as cli_main
from sqopt.equilibrium import EpParams
from sqopt.fields import Kind
from sqopt.geometry import rng_for
from sqopt.harness import _CHECK_KINDS, _DYNAMICS_KINDS, _RUN_KINDS, _SEED, _SWEEP_KINDS, VARIANTS
from sqopt.minimize import MinParams
from sqopt.prox import GlobalSolveConfig

ROOT = Path(__file__).resolve().parents[1]
ROUNDS = 300
MUTATIONS = ("drop", "flip", "out_of_range", "fractional", "boolean", "non_finite", "dimension",
             "empty")


def _seed_configs() -> list:
    block = re.search(r"```json\n(.*?)```", (ROOT / "README.md").read_text(), re.S).group(1)
    spec = importlib.util.spec_from_file_location("benchmark_jobs", ROOT / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(jobs)
    return [("minimize", json.loads(block))] + [
        (job["command"], job["config"]) for workload in jobs.WORKLOADS
        for job in jobs.make_jobs(workload, 31)]


ALGORITHM_KINDS = {"minimize": {**declared_kinds(MinParams), **_RUN_KINDS},
                   "ep": {**declared_kinds(EpParams), **_RUN_KINDS}}
ALGORITHM_KINDS["minimize"]["variant"] = ALGORITHM_KINDS["ep"]["variant"] = Kind(
    "enum", choices=tuple(VARIANTS))


def _clip(command: str, cfg: dict):
    """Caps on iterations, samples, grid points and flow steps, so a round stays short."""
    algo = cfg.get("algorithm")
    if algo is not None:
        algo["max_iters"] = min(algo.get("max_iters", 3), 3)
        if "prox" in VARIANTS[algo["variant"]].keys:
            prox = algo.setdefault("prox", {})
            prox["grid_density"] = min(prox.get("grid_density", 401), 401)
    for check in cfg.get("verify", {}).get("checks", []):
        if "n" in check:
            check["n"] = min(check["n"], 200)
    dyn = cfg.get("dynamics")
    if dyn is not None:
        dyn["T"], dyn["dt"] = min(dyn["T"], 0.5), max(dyn["dt"], 0.01)


def _sites(cfg: dict) -> list:
    """Every (object, key, kind) a mutation may touch; kind None for a nested object."""
    sites = [(cfg, "seed", _SEED)]
    kind = cfg["problem"].get("kind", "minimize")
    for section, kinds in (("algorithm", ALGORITHM_KINDS[kind]), ("dynamics", _DYNAMICS_KINDS),
                           ("sweep", _SWEEP_KINDS)):
        if section in cfg:
            sites.append((cfg, section, None))
            sites += [(cfg[section], key, k) for key, k in kinds.items()]
    algo = cfg.get("algorithm", {})
    for key, kinds in (("prox", declared_kinds(GlobalSolveConfig)),
                       ("bregman", _RUN_KINDS["bregman"].of)):
        if isinstance(algo.get(key), dict):
            sites += [(algo[key], k, kind) for k, kind in kinds.items()]
    for check in cfg.get("verify", {}).get("checks", []):
        sites.append((check, "check", Kind("enum")))
        sites += [(check, key, k) for key, k in _CHECK_KINDS.items()]
    problem = cfg["problem"]
    sites += [(problem, key, None) for key in ("objective", "bifunction", "set") if key in problem]
    return sites


def _mutate(rng, obj: dict, key: str, kind, how: str):
    value = obj.get(key)
    if how == "drop":
        obj.pop(key, None)
    elif how == "empty":  # an empty object, or an empty list where no object goes
        obj[key] = {} if kind is None or kind.name == "object" else []
    elif how == "flip":
        obj[key] = [v for v in ("x", [1.0], {"a": 1}, None, 2.0) if type(v) is not type(value)][
            int(rng.integers(4))]
    elif how == "out_of_range":
        lo = -1.0 if kind is None or kind.lo is None else kind.lo - (0 if kind.strict else 1)
        obj[key] = {"enum": "bogus", "numbers": [lo], "point": [lo] * 3}.get(
            getattr(kind, "name", None), lo)
    elif how == "fractional":
        obj[key] = (value if isinstance(value, (int, float)) else 1) + 0.5
    elif how == "boolean":
        obj[key] = [True] if isinstance(value, list) else bool(rng.integers(2))
    elif how == "non_finite":
        bad = [float("nan"), float("inf"), -float("inf")][int(rng.integers(3))]
        obj[key] = [bad] if isinstance(value, list) else bad
    else:  # dimension: one coordinate or entry more
        obj[key] = (value if isinstance(value, list) else [value]) + [0.5]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def _assert_strict_files(out: Path, where: str):
    for path in sorted(out.rglob("*")):
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=_reject_constant)
        elif path.suffix == ".csv":
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            assert rows and all(len(r) == len(rows[0]) for r in rows), f"{where}: {path.name}"


def test_mutated_configs_end_in_a_documented_exit(tmp_path, capsys):
    rng = rng_for(2024)
    seeds = _seed_configs()
    for i in range(ROUNDS):
        command, seed = seeds[int(rng.integers(len(seeds)))]
        cfg = copy.deepcopy(seed)
        _clip(command, cfg)
        sites = _sites(cfg)
        obj, key, kind = sites[int(rng.integers(len(sites)))]
        how = MUTATIONS[int(rng.integers(len(MUTATIONS)))]
        _mutate(rng, obj, key, kind, how)
        where = f"round {i}: {command} with {how} of {key!r}"
        path = tmp_path / f"cfg{i}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / f"out{i}"
        code = cli_main([command, "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        assert code in (0, 1, 2, 3), where
        assert "Traceback" not in captured.err, where
        if code == 0:
            assert captured.err == "", f"{where}: {captured.err}"
        else:
            assert captured.err.endswith("\n") and captured.err.count("\n") == 1, (
                f"{where}: {captured.err}")
        if captured.out.strip():
            json.loads(captured.out, parse_constant=_reject_constant)
        _assert_strict_files(out, where)
