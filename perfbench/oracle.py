"""Correctness oracle: check every answer against the benchmark's own data.

Each check returns a list of problems (empty means the answer holds).
Densities are recomputed from the benchmark's edge arrays, never from
the program's graph objects, and the certificates are the ones the
solvers' guarantees rest on:

* UDS (k*-core): every vertex of S has at least k* neighbours in S;
* DDS ([x, y]-core): every vertex of S has at least x out-neighbours in
  T and every vertex of T at least y in-neighbours in S.
"""

from __future__ import annotations

import math

import numpy as np

#: Relative tolerance for a reported density against the recomputed one.
DENSITY_RTOL = 1e-9


def _ids(values, n: int, what: str, problems: list) -> np.ndarray:
    ids = np.asarray(values, dtype=np.int64)
    if ids.size == 0:
        problems.append(f"{what} is empty")
    elif ids.min() < 0 or ids.max() >= n:
        problems.append(f"{what} has ids outside [0, {n})")
    elif np.unique(ids).size != ids.size:
        problems.append(f"{what} repeats vertices")
    return ids


def _density_close(reported: float, recomputed: float) -> bool:
    return abs(reported - recomputed) <= DENSITY_RTOL * max(1.0, abs(recomputed))


def check_uds(edges: np.ndarray, n: int, vertices, density: float,
              k_star: int | None) -> list:
    """Check a UDS answer over undirected ``edges`` (benchmark ids)."""
    problems: list = []
    ids = _ids(vertices, n, "S", problems)
    if problems:
        return problems
    member = np.zeros(n, dtype=bool)
    member[ids] = True
    inside = member[edges[:, 0]] & member[edges[:, 1]]
    induced = edges[inside]
    recomputed = induced.shape[0] / ids.size
    if not _density_close(float(density), recomputed):
        problems.append(
            f"density {density!r} but S induces {induced.shape[0]} edges "
            f"on {ids.size} vertices ({recomputed!r})"
        )
    if k_star is None:
        problems.append("no k* reported, so no k*-core certificate")
        return problems
    degree = np.bincount(induced.ravel(), minlength=n)[ids]
    if degree.min() < k_star:
        problems.append(
            f"k*-core certificate fails: a vertex of S has "
            f"{int(degree.min())} < k*={k_star} neighbours in S"
        )
    return problems


def check_dds(arcs: np.ndarray, n: int, s, t, density: float,
              x: int | None, y: int | None) -> list:
    """Check a DDS answer over directed ``arcs`` (benchmark ids)."""
    problems: list = []
    s_ids = _ids(s, n, "S", problems)
    t_ids = _ids(t, n, "T", problems)
    if problems:
        return problems
    in_s = np.zeros(n, dtype=bool)
    in_t = np.zeros(n, dtype=bool)
    in_s[s_ids] = True
    in_t[t_ids] = True
    cross = arcs[in_s[arcs[:, 0]] & in_t[arcs[:, 1]]]
    recomputed = cross.shape[0] / math.sqrt(s_ids.size * t_ids.size)
    if not _density_close(float(density), recomputed):
        problems.append(
            f"density {density!r} but S->T holds {cross.shape[0]} arcs "
            f"({recomputed!r})"
        )
    if x is None or y is None:
        problems.append("no [x, y] reported, so no [x,y]-core certificate")
        return problems
    out_deg = np.bincount(cross[:, 0], minlength=n)[s_ids]
    in_deg = np.bincount(cross[:, 1], minlength=n)[t_ids]
    if out_deg.min() < x or in_deg.min() < y:
        problems.append(
            f"[x,y]-core certificate fails for [{x}, {y}]: min out-degree "
            f"into T {int(out_deg.min())}, min in-degree from S "
            f"{int(in_deg.min())}"
        )
    return problems


def answer_key(result) -> tuple:
    """The comparable content of a result: vertices, density, iterations."""
    if hasattr(result, "vertices"):
        vertex_part = (np.asarray(result.vertices, dtype=np.int64).tobytes(),)
    else:
        vertex_part = (
            np.asarray(result.s, dtype=np.int64).tobytes(),
            np.asarray(result.t, dtype=np.int64).tobytes(),
        )
    return vertex_part + (float(result.density), int(result.iterations))


def same_answer(result, reference_key: tuple) -> list:
    """Compare ``result`` with a reference :func:`answer_key`."""
    got = answer_key(result)
    if got == reference_key:
        return []
    fields = ("vertices", "density", "iterations")
    if len(got) == 4:
        fields = ("S", "T", "density", "iterations")
    differ = [f for f, a, b in zip(fields, got, reference_key) if a != b]
    return [f"answer differs from the reference in {', '.join(differ)}"]
