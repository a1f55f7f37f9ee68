"""Correctness checker: judges each job from what the CLI emitted.

``judge`` reads the exit code, the captured stdout and the files a job wrote,
and returns ``None`` for a correct result or a one-line reason.  ``oracle``
checks an equilibrium runner's returned final point against independent grid
oracles that share no code with the program.  ``digest`` hashes the files that
must be byte-reproducible, for the determinism check across passes.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from jobs import ORACLE_DIST_TOL, RESIDUAL_EP_MIN

# glt_example(p=2, q=2) on its default box [0, 4]^n, written out here rather
# than imported, so the oracle is an independent route to the answer.
GLT_P, GLT_Q, GLT_LO, GLT_HI = 2.0, 2.0, 0.0, 4.0

# How the reasons start when an equilibrium job stopped at a non-equilibrium.
NON_EQUILIBRIUM = ("final residual_ep", "oracle:")


def _glt_g(U: np.ndarray) -> np.ndarray:
    sq = np.sum(U * U, axis=-1)
    return np.maximum(sq**0.25, np.sum((U - GLT_Q) ** 2, axis=-1) - GLT_Q)


def glt_f(x: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """f(x, y) = p (g(y) - g(x)) + x . (y - x), batched over the rows of Y."""
    x = np.asarray(x, dtype=float)
    return GLT_P * (_glt_g(Y) - _glt_g(x[None, :])) + (Y - x) @ x


@functools.cache
def _glt1d_solution() -> float:
    """Dense-grid equilibrium of the 1-D problem (acceptance criterion 7)."""
    xs = np.linspace(GLT_LO, GLT_HI, 2001)
    g = np.maximum(np.sqrt(xs), (xs - GLT_Q) ** 2 - GLT_Q)
    F = GLT_P * (g[None, :] - g[:, None]) + xs[:, None] * (xs[None, :] - xs[:, None])
    return float(xs[F.min(axis=1).argmax()])


def _glt2d_gap(x: np.ndarray) -> float:
    """min over a 401^2 grid of y of f(x, y); >= 0 at an equilibrium."""
    ax = np.linspace(GLT_LO, GLT_HI, 401)
    Y = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1).reshape(-1, 2)
    return float(np.min(glt_f(x, Y)))


def oracle(kind: str, final_point) -> str | None:
    """Judge an equilibrium runner's final point against an independent oracle."""
    x = np.asarray(final_point, dtype=float)
    if kind == "glt1d":
        d = abs(float(x[0]) - _glt1d_solution())
        return None if d <= ORACLE_DIST_TOL else f"oracle: {d:.3g} from grid equilibrium"
    if kind == "glt2d":
        gap = _glt2d_gap(x)
        return None if gap >= RESIDUAL_EP_MIN else f"oracle: grid min_y f(x*, y) = {gap:.3g}"
    if kind == "origin":
        d = float(np.linalg.norm(x))
        return None if d <= ORACLE_DIST_TOL else f"oracle: {d:.3g} from the minimizer 0"
    raise ValueError(f"unknown oracle {kind!r}")


def _last_residual_ep(trace_csv: Path) -> float:
    with open(trace_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return float(rows[-1]["residual_ep"])


def judge(job: dict, code: int, stdout: str, out_dir: Path) -> str | None:
    """None when the job's emitted outputs show a correct result, else why not."""
    if code != 0:
        return f"exit code {code}"
    expect = job["expect"]
    command = job["command"]
    try:
        if command in ("minimize", "solve-ep"):
            summary = json.loads(stdout)
            if "distance" in expect:
                d = summary["distance_to_known_solution"]
                if d is None or not d <= expect["distance"]:
                    return f"distance_to_known_solution {d} > {expect['distance']}"
            if "final_value" in expect:
                err = abs(summary["final_value"] - expect["final_value"])
                if not err <= expect["tol"]:
                    return f"final_value off the constrained minimum by {err:.3g}"
            if "residual_ep_min" in expect:
                r = _last_residual_ep(out_dir / "trace.csv")
                if not r >= expect["residual_ep_min"]:
                    return f"final residual_ep {r:.3g} < {expect['residual_ep_min']}"
        elif command == "sweep":
            table = json.loads(stdout)
            bad = [r["cell"] for r in table["rows"] if not r.get("converged")]
            if bad or len(table["rows"]) != 10:
                return f"sweep cells not converged: {bad}"
        elif command == "verify":
            reports = json.loads(stdout)
            failed = [r["property"] for r in reports if not r["passed"]]
            if failed:
                return f"verify checks failed: {failed}"
            for i, bound in expect["estimates"].items():
                est = reports[i]["estimate"]
                if not est >= bound["min"]:
                    return f"{reports[i]['property']} estimate {est} < {bound['min']}"
        elif command == "dynamics":
            info = json.loads(stdout)
            err = float(np.linalg.norm(np.subtract(info["final_state"], expect["final_state"])))
            if not err <= expect["tol"]:
                return f"final state {err:.3g} from the minimizer"
        else:
            raise ValueError(f"unknown command {command!r}")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
        return f"unreadable output: {type(e).__name__}: {e}"
    return None


def digest(job: dict, out_dir: Path) -> str:
    """Hash of the outputs that must be byte-identical on every re-run."""
    names = {
        "minimize": ["trace.csv"],
        "solve-ep": ["trace.csv"],
        "sweep": ["sweep.csv"] + sorted(p.name for p in out_dir.glob("*_trace.csv")),
        "verify": ["checks.json"],
        "dynamics": ["trajectory.csv"],
    }[job["command"]]
    h = hashlib.sha256()
    for name in names:
        path = out_dir / name
        h.update(name.encode() + b"\0")
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()
