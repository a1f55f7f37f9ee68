"""Self-tests of the benchmark: seeded inputs, wrapper removal, the checker.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import check  # noqa: E402
import jobs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from sqopt import cli  # noqa: E402


def _run(job: dict, tmp_path: Path) -> tuple[int, str, Path]:
    cfg = tmp_path / f"{job['id']}.json"
    cfg.write_text(json.dumps(job["config"]))
    out = tmp_path / job["id"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([job["command"], "--config", str(cfg), "--out", str(out)])
    return code, buf.getvalue(), out


def _job(workload: str, job_id: str, seed: int = 0) -> dict:
    return next(j for j in jobs.make_jobs(workload, seed) if j["id"] == job_id)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload):
    def dump(seed):
        return json.dumps(jobs.make_jobs(workload, seed), sort_keys=True).encode()

    assert dump(5) == dump(5)
    assert dump(5) != dump(6)


def _namespaces() -> dict:
    return {(id(holder), name): value
            for holder, ns in layers._holders() for name, value in ns.items()}


def test_wrappers_are_removed_by_identity(tmp_path):
    before = _namespaces()
    tracer = layers.Tracer()
    patches = layers.install(tracer)
    try:
        patched = {name for _, name, _ in patches}
        assert {"run_from_config", "prox", "prox_point", "project_many", "catalog",
                "check_sqc_sampled", "integrate_ds2", "ep_residual", "PPA_EP"} <= patched
        assert layers.wrapped_references()
        code, _, _ = _run(_job("minimize", "ppa_sin_quad"), tmp_path)
    finally:
        layers.uninstall(patches)
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert layers.wrapped_references() == []
    assert code == 0
    m = layers.layer_metrics(tracer)
    assert m["harness.jobs"] == 1 and m["minimize.runs"] == 1
    assert m["prox.calls"] == m["minimize.iterations"] > 0
    assert m["functions.fn_rows"] >= m["prox.fn_evals"] > 0


def test_checker_accepts_then_rejects_a_perturbed_minimize_result(tmp_path):
    job = _job("minimize", "ppa_sin_quad")
    code, stdout, out = _run(job, tmp_path)
    assert check.judge(job, code, stdout, out) is None
    summary = json.loads(stdout)
    summary["distance_to_known_solution"] += 2 * jobs.DIST_TOL
    assert "distance" in check.judge(job, code, json.dumps(summary), out)
    assert "exit code" in check.judge(job, 2, stdout, out)


def test_checker_rejects_a_perturbed_equilibrium_certificate(tmp_path):
    job = _job("solve_ep", "value_gap_rippa_ep")
    code, stdout, out = _run(job, tmp_path)
    assert check.judge(job, code, stdout, out) is None
    assert check.oracle(job["oracle"], np.zeros(2)) is None
    trace = out / "trace.csv"
    rows = list(csv.reader(trace.open()))
    rows[-1][rows[0].index("residual_ep")] = repr(10 * jobs.RESIDUAL_EP_MIN)
    with trace.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert "residual_ep" in check.judge(job, code, stdout, out)


def test_checker_rejects_failed_checks_and_cells():
    verify_job = _job("certify", "verify_gauss_well")
    reports = [{"property": "sqc", "passed": True, "estimate": None},
               {"property": "modulus_estimate", "passed": True, "estimate": np.exp(-1.0)}]
    assert check.judge(verify_job, 0, json.dumps(reports), Path(".")) is None
    reports[1]["estimate"] = 0.3
    assert "estimate" in check.judge(verify_job, 0, json.dumps(reports), Path("."))
    reports[0]["passed"] = False
    assert "failed" in check.judge(verify_job, 0, json.dumps(reports), Path("."))
    sweep_job = _job("minimize", "sweep_power_norm")
    rows = [{"cell": f"c{i}", "converged": True} for i in range(10)]
    assert check.judge(sweep_job, 0, json.dumps({"rows": rows}), Path(".")) is None
    rows[3]["converged"] = False
    assert "c3" in check.judge(sweep_job, 0, json.dumps({"rows": rows}), Path("."))


def test_oracles_tell_equilibria_from_other_points():
    assert check.oracle("glt2d", [0.7668, 0.7668]) is None
    assert check.oracle("glt2d", [2.0, 2.0]) is not None
    x1 = check._glt1d_solution()
    assert check.oracle("glt1d", [x1]) is None
    assert check.oracle("glt1d", [x1 + 10 * jobs.ORACLE_DIST_TOL]) is not None


def test_digest_sees_a_changed_byte(tmp_path):
    job = _job("minimize", "ppa_sin_quad")
    _, _, out = _run(job, tmp_path)
    d = check.digest(job, out)
    data = bytearray((out / "trace.csv").read_bytes())
    data[-2] ^= 1
    (out / "trace.csv").write_bytes(bytes(data))
    assert check.digest(job, out) != d


def test_benchmark_json_matches_the_code():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(jobs.WORKLOADS)
    assert all(f"per-job limit {jobs.JOB_LIMIT_S:g} s" in w["why"] for w in spec["workloads"])
    names = list(layers.layer_metrics(layers.Tracer())) + ["trace.overhead"]
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == run.per_layer_unit(m["name"]) for m in spec["per_layer"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
