"""Dynamic time warping baselines.

Classic DTW and its soft-min relaxation (Cuturi & Blondel, arXiv
1703.01541) over the step set {(1,0), (0,1), (1,1)} with squared
Euclidean ground cost and no band constraint.  Inputs are paths or plain
(n, d) arrays of finite points; time grids are ignored, only the visited
points matter.

Both recursions are batched: :func:`soft_dtws` and :func:`dtws` run
many (x, y) rows at once, one anti-diagonal of the DP table per numpy
step.  :func:`soft_dtw` is the one-row case of :func:`soft_dtws`;
:func:`dtw` is a scalar loop over the full cost matrix, and
:func:`dtws` is its batched twin, equal to it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["cost_matrix", "dtw", "dtws", "soft_dtw", "soft_dtws"]


def _as_points(obj) -> np.ndarray:
    pts = np.asarray(getattr(obj, "points", obj), dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or min(pts.shape) < 1:
        raise ValueError("expected a nonempty (n, d) point array")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")
    return pts


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"sequences have different dimensions {a.shape[1]} and {b.shape[1]}"
        )


def cost_matrix(x, y) -> np.ndarray:
    """Pairwise squared Euclidean costs ``(n, m)`` of two point sequences."""
    a, b = _as_points(x), _as_points(y)
    _check_dims(a, b)
    # coordinates summed one at a time, in the order the wavefront
    # kernel sums them, so that dtw and dtws agree bit for bit
    with np.errstate(over="ignore"):
        entries = np.square(a[:, None, 0] - b[None, :, 0])
        for k in range(1, a.shape[1]):
            entries += np.square(a[:, None, k] - b[None, :, k])
    return entries


def dtw(x, y) -> float:
    """Minimal accumulated squared cost over monotone alignments.

    Zero for identical sequences and invariant under duplicating
    breakpoints, which is what makes it a reparametrization-robust
    baseline.
    """
    c = cost_matrix(x, y)
    n, m = c.shape
    inf = math.inf
    prev = [0.0] + [inf] * m
    for i in range(n):
        # one row of Python floats at a time: converting the whole matrix
        # up front made the time grow faster than n * m at n = 800
        row = c[i].tolist()
        cur = [inf] * (m + 1)
        for j in range(1, m + 1):
            best = prev[j]
            if cur[j - 1] < best:
                best = cur[j - 1]
            if prev[j - 1] < best:
                best = prev[j - 1]
            cur[j] = row[j - 1] + best
        prev = cur
    return prev[m]


def dtws(xs, ys) -> np.ndarray:
    """:func:`dtw` of each row ``(xs[k], ys[k])``, bit for bit.

    The hard mode of the :func:`soft_dtws` wavefront: each cell is
    ``cost + min(up, left, diag)``, so a cost that overflows gives inf
    as it does in :func:`dtw`.
    """
    return _batched(xs, ys, None)


def soft_dtw(x, y, gamma: float) -> float:
    """Soft-min relaxation of :func:`dtw` at temperature gamma.

    Converges to the hard value as gamma -> 0.  Because the soft min
    lies below the hard min, the value can be negative; in particular
    ``soft_dtw(x, x, gamma) <= 0``.
    """
    return float(soft_dtws([x], [y], [gamma])[0])


def soft_dtws(xs, ys, gammas) -> np.ndarray:
    """:func:`soft_dtw` of each row ``(xs[k], ys[k], gammas[k])``.

    Rows with the same ``(n, m, d)`` run together over the ``n + m - 1``
    anti-diagonals of their DP tables.  Each step forms only its own
    diagonal's costs and keeps the last two diagonals, so the working
    set is ``O(rows * (n + m) * d)``.  A row gives the same bits alone
    as in any batch.
    """
    gammas = np.asarray(gammas, dtype=float)
    if not len(xs) == len(ys) == gammas.size or gammas.ndim != 1:
        raise ValueError("need one gamma per (x, y) pair")
    if not (np.isfinite(gammas) & (gammas > 0)).all():
        raise ValueError("gamma must be finite and positive")
    return _batched(xs, ys, gammas)


def _batched(xs, ys, gammas: np.ndarray | None) -> np.ndarray:
    # rows with one (n, m, d) share a wavefront; gammas None is hard DTW
    xs, ys = [_as_points(x) for x in xs], [_as_points(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError("need one y per x")
    groups: dict[tuple[int, int, int], list[int]] = {}
    for k, (a, b) in enumerate(zip(xs, ys)):
        _check_dims(a, b)
        groups.setdefault((*a.shape, b.shape[0]), []).append(k)
    out = np.empty(len(xs))
    for idx in groups.values():
        out[idx] = _wavefront(
            np.stack([xs[k].T for k in idx], axis=1),
            np.stack([ys[k][::-1].T for k in idx], axis=1),
            None if gammas is None else gammas[idx, None],
        )
    return out


def _wavefront(x: np.ndarray, y_rev: np.ndarray, gamma: np.ndarray | None) -> np.ndarray:
    """Soft DTW of ``x`` against the reversed sequences ``y_rev`` at
    temperatures ``gamma`` ``(r, 1)``, or hard DTW when ``gamma`` is
    None; points are stacked coordinate first, ``(d, r, n)`` and
    ``(d, r, m)``, so a diagonal's costs are sums of ``(r, L)`` slices.

    Entry ``i`` of the diagonal ``s`` holds ``R[i, s - i]``; cells off
    the table, and its zero row and column past ``R[0, 0]``, are inf.
    """
    _, r, n = x.shape
    m = y_rev.shape[2]
    inf = math.inf
    prev2 = np.full((r, n + 1), inf)
    prev2[:, 0] = 0.0
    prev1 = np.full((r, n + 1), inf)
    with np.errstate(over="ignore", divide="ignore"):
        for s in range(2, n + m + 1):
            lo, hi = max(1, s - m), min(n, s - 1)
            # cells (i, s - i) for i in [lo, hi]; y_rev[m - j] is y[j - 1]
            xi, yj = slice(lo - 1, hi), slice(m - s + lo, m - s + hi + 1)
            cost = np.square(x[0, :, xi] - y_rev[0, :, yj])
            for xk, yk in zip(x[1:], y_rev[1:]):
                cost += np.square(xk[:, xi] - yk[:, yj])
            up, left, diag = prev1[:, lo - 1:hi], prev1[:, lo:hi + 1], prev2[:, lo - 1:hi]
            low = np.minimum(np.minimum(up, left), diag)
            if gamma is not None:
                # costs that overflowed leave all three predecessors inf;
                # the clamp keeps inf - inf out, so such a cell comes out inf
                np.minimum(low, np.finfo(float).max, out=low)
                total = (
                    np.exp((low - up) / gamma)
                    + np.exp((low - left) / gamma)
                    + np.exp((low - diag) / gamma)
                )
                low = low - gamma * np.log(total)
            cur = np.full((r, n + 1), inf)
            cur[:, lo:hi + 1] = cost + low
            prev2, prev1 = prev1, cur
    return prev1[:, n]
