"""sqopt benchmark: seeded CLI workloads, PAR-2 time to solution, traced layers.

    python3 perfbench/run.py --workload minimize --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

A workload is a list of real CLI jobs (see ``jobs.py``) made from the seed.
One pass runs every job once, in this process, one job at a time (a closed
loop with one client), through ``sqopt.cli.main`` with stdout captured, and
the checker judges every job from its emitted outputs.  Passes repeat until
``--seconds`` is used up.

End-to-end metrics (``--trace 0``, no wrappers installed):
  par2_s       sum over jobs of the job's median time over the passes; a
               failed job is charged twice the per-job limit (PAR-2), so a
               correctness fix never reads as a slowdown
  setup_s      median over fresh interpreters of importing sqopt and building
               every problem of the workload once with harness.build_problem
  peak_rss_mb  peak resident memory of this process
fail_share (failed / attempted) is printed with them and carried by the
``failed`` and ``attempted`` fields of the result line.

Per-layer metrics (``--trace 1``): untraced and traced passes alternate; the
traced ones run with the wrappers of ``layers.py`` installed, and each metric is
its median over traced passes.  ``trace.overhead`` is the median traced pass
time over the median untraced pass time.  The traced passes also check every
equilibrium runner's returned final point against independent grid oracles.

Every pass re-runs every job, and each job's trace files must be
byte-identical to its first pass.  The last stdout line is a JSON object with
keys correct, attempted, failed and metrics.  ``correct`` is false when a job
fails other than by its documented known defect.  Exits 2 without a result
when the sqopt sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
CHILD_TIMEOUT_S = 900

# One BLAS thread: jobs run one at a time, and the catalog's batches are
# elementwise NumPy work, so extra BLAS threads only add scheduling noise.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"par2_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    for suffix, unit in ((".p50", "ms"), (".tail", "ms"), ("tail_pct", "%"),
                         ("us_per_row", "us"), ("rows_per_call", "rows"),
                         ("evals_per_call", "evals"), ("overhead", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({v: BLAS_THREADS for v in BLAS_VARS})
    return env


class Bench:
    """One workload at one seed: configs on disk, passes, checks, metrics."""

    def __init__(self, workload: str, seed: int):
        import jobs

        self.workload = workload
        self.jobs = jobs.make_jobs(workload, seed)
        self.limit = jobs.JOB_LIMIT_S
        self.out = OUT / workload
        shutil.rmtree(self.out, ignore_errors=True)
        (self.out / "configs").mkdir(parents=True)
        self.cfg_paths = []
        for job in self.jobs:
            path = self.out / "configs" / f"{job['id']}.json"
            path.write_text(json.dumps(job["config"], sort_keys=True, indent=2) + "\n")
            self.cfg_paths.append(path)
        self.problems = [job["config"]["problem"] for job in self.jobs]
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[tuple[dict, str]] = []

    # -- set-up ------------------------------------------------------------

    def setup_seconds(self) -> list[float]:
        """Cold set-up times, each in a fresh interpreter (import is once per process)."""
        spec = self.out / "problems.json"
        spec.write_text(json.dumps(self.problems))
        times = []
        for _ in range(SETUP_PROBES):
            res = subprocess.run([sys.executable, str(HERE / "probe_setup.py"), str(spec)],
                                 capture_output=True, text=True, env=child_env(),
                                 timeout=PROBE_TIMEOUT_S, cwd=ROOT)
            if res.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-500:]}")
            times.append(float(res.stdout.split()[-1]))
        return times

    def warm(self):
        """Import and build every problem in this process before timing."""
        from sqopt import harness

        for spec in self.problems:
            harness.build_problem(spec)

    # -- passes ------------------------------------------------------------

    def run_job(self, i: int, tracer=None) -> tuple[float, str | None]:
        import check
        from sqopt import cli

        job = self.jobs[i]
        out_dir = self.out / "jobs" / job["id"]
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [job["command"], "--config", str(self.cfg_paths[i]), "--out", str(out_dir)]
        if job["command"] == "sweep":
            argv += ["--workers", "1"]
        stdout, stderr, error = io.StringIO(), io.StringIO(), None
        if tracer is not None:
            tracer.job_index = i
            tracer.enter("job", job["id"])
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except Exception:  # a traceback is a failed job, not a failed benchmark
            code, error = None, traceback.format_exc()
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.exit()
        if error is not None:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / "traceback.txt").write_text(error)
            reason = f"raised {error.strip().splitlines()[-1][:200]} (see traceback.txt)"
        else:
            reason = check.judge(job, code, stdout.getvalue(), out_dir)
            if code != 0:
                reason += f" ({stderr.getvalue().strip()[:200]})"
        if reason is None and elapsed > self.limit:
            reason = f"took {elapsed:.2f} s, over the per-job limit of {self.limit} s"
        if tracer is not None and job.get("oracle"):
            reason = self._oracle(job, tracer.final_points.get(i, []), reason)
        digest = check.digest(job, out_dir)
        first = self.digests.setdefault(job["id"], digest)
        if digest != first:
            reason = (reason + "; " if reason else "") + "trace bytes differ from the first pass"
        self.attempted += 1
        if reason is not None:
            self.failures.append((job, reason))
        return elapsed, reason

    @staticmethod
    def _oracle(job: dict, points: list, reason: str | None) -> str | None:
        """Fold the independent oracle's verdict into the job's; disagreement fails."""
        import check

        verdicts = [check.oracle(job["oracle"], p) for p in points]
        wrong = next((v for v in verdicts if v), None) if points else "oracle: no final point"
        if wrong and reason:
            return f"{reason}; {wrong}"
        if wrong:
            return f"certificate passed but {wrong}"
        if reason:
            return f"{reason}, but the oracle finds an equilibrium"
        return None

    def run_pass(self, tracer=None) -> list[tuple[float, str | None]]:
        return [self.run_job(i, tracer) for i in range(len(self.jobs))]

    def charge(self, elapsed: float, reason: str | None) -> float:
        return elapsed if reason is None else 2.0 * self.limit

    def par2(self, passes: list) -> float:
        """Sum over jobs of the median charged time over the passes."""
        return sum(statistics.median(self.charge(*p[i]) for p in passes)
                   for i in range(len(self.jobs)))

    @property
    def failed(self) -> int:
        return len(self.failures)

    def correct(self) -> bool:
        """No failure other than a known-defect job stopping at a non-equilibrium."""
        import check

        return all(job.get("known_defect") and reason.startswith(check.NON_EQUILIBRIUM)
                   for job, reason in self.failures)

    def failure_lines(self) -> list[str]:
        counts: dict[tuple[str, str], int] = {}
        for job, reason in self.failures:
            note = f" [known defect: {job['known_defect']}]" if job.get("known_defect") else ""
            key = (job["id"], reason + note)
            counts[key] = counts.get(key, 0) + 1
        return [f"  failed x{n}: {jid}: {why}" for (jid, why), n in counts.items()]


def conditions() -> str:
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return (f"conditions: one process, one job at a time, sweep workers 1, "
            f"BLAS threads {BLAS_THREADS} (nproc {nproc}), cpu {cpu_model()!r}, "
            f"numpy {numpy.__version__}, python {platform.python_version()}")


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    """Run passes until the time is used; returns the metrics as name -> value."""
    import layers

    untraced, traced, layer_rows, tracers = [], [], [], []
    t_start = time.perf_counter()
    while True:
        untraced.append(bench.run_pass())
        if trace:
            tracer = layers.Tracer()
            patches = layers.install(tracer)
            try:
                traced.append(bench.run_pass(tracer))
            finally:
                layers.uninstall(patches)
            tracers.append(tracer)
            layer_rows.append(layers.layer_metrics(tracer))
        elapsed = time.perf_counter() - t_start
        rounds = len(untraced)
        # two untraced passes at least, so every job is re-run for the byte check
        if (trace or rounds >= 2) and elapsed + elapsed / rounds > seconds:
            break
    pass_s = statistics.median(sum(t for t, _ in p) for p in untraced)
    if not trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"passes: {len(untraced)} of {len(bench.jobs)} jobs, median pass {pass_s:.3f} s, "
              f"per-job limit {bench.limit} s (a failed job is charged {2 * bench.limit} s)")
        for i, job in enumerate(bench.jobs):
            t = statistics.median(p[i][0] for p in untraced)
            bad = sum(p[i][1] is not None for p in untraced)
            print(f"  job {job['id']:28s} {t:9.4f} s median" + (f", failed {bad}x" if bad else ""))
        return {"par2_s": bench.par2(untraced), "peak_rss_mb": rss_mb}
    traced_s = statistics.median(sum(t for t, _ in p) for p in traced)
    metrics = {name: statistics.median(row[name] for row in layer_rows) for name in layer_rows[0]}
    metrics["trace.overhead"] = traced_s / pass_s
    spans = sum(t.write_spans(bench.out / f"spans_pass{k}.csv") for k, t in enumerate(tracers))
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced, of {len(bench.jobs)} jobs; "
          f"{spans} spans written to {bench.out.relative_to(ROOT)}/spans_pass*.csv")
    print(f"tracing overhead: median traced pass {traced_s:.3f} s vs untraced {pass_s:.3f} s "
          f"(x{traced_s / pass_s:.3f})")
    return metrics


def run_one(args) -> int:
    bench = Bench(args.workload, args.seed)
    print(f"sqopt benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds} s, trace {args.trace}")
    print(conditions())
    if args.trace:
        bench.warm()
        metrics = measure(bench, args.seconds, trace=True)
    else:
        setups = bench.setup_seconds()
        bench.warm()
        metrics = measure(bench, args.seconds, trace=False)
        metrics["setup_s"] = statistics.median(setups)
        metrics = {name: metrics[name] for name in END_TO_END_UNITS}
    units = END_TO_END_UNITS if not args.trace else {n: per_layer_unit(n) for n in metrics}
    for name, value in metrics.items():
        print(f"  {name:36s} {value:16.6f} {units[name]}")
    share = bench.failed / bench.attempted
    print(f"  {'fail_share':36s} {share:16.6f} ratio ({bench.failed}/{bench.attempted} jobs failed)")
    for line in bench.failure_lines():
        print(line)
    result = {
        "correct": bench.correct(),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    import jobs

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in jobs.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            res = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                                 timeout=CHILD_TIMEOUT_S, cwd=ROOT)
            lines = res.stdout.strip().splitlines()
            if res.returncode != 0 or not lines:
                print(res.stdout + res.stderr, file=sys.stderr)
                return res.returncode or 1
            print("\n".join(lines[:-1]) + "\n")
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=("minimize", "solve_ep", "certify", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "sqopt" / "__init__.py").is_file():
        print(f"error: sqopt sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({v: BLAS_THREADS for v in BLAS_VARS})  # before numpy loads
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
