"""Dynamic time warping baselines.

Classic DTW and its soft-min relaxation (Cuturi & Blondel, arXiv
1703.01541) over the step set {(1,0), (0,1), (1,1)} with squared
Euclidean ground cost and no band constraint.  Inputs are paths or plain
(n, d) arrays of finite points; time grids are ignored, only the visited
points matter.

One anti-diagonal wavefront computes every value but the scalar
:func:`dtw`.  It runs many (x, y) pairs at once, one diagonal of their
DP tables per numpy step, and keeps its state rows last: points
``(d, n, rows)`` and the last two diagonals ``(n + 1, tables, rows)``,
so each step works on one contiguous block.  A pair carries one soft
table per gamma and one hard table, and each step forms the pair's cost
diagonal once for all of them.  :func:`dtw_family` is the one batched
entry point: every pair at every gamma, plus hard DTW.  :func:`soft_dtw`
is its one-pair, one-gamma case.  :func:`dtw` is a scalar loop over the
full cost matrix; the hard tables equal it bit for bit.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = ["cost_matrix", "dtw", "dtw_family", "soft_dtw"]


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
    # kernel sums them, so that dtw and the hard tables agree bit for bit
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


def dtw_family(xs, ys, gammas) -> np.ndarray:
    """Soft DTW of each pair ``(xs[k], ys[k])`` at every gamma, then hard
    DTW: shape ``(len(xs), len(gammas) + 1)``.

    One wavefront pass per pair feeds each cost diagonal to all
    ``len(gammas) + 1`` tables.  Column j equals :func:`soft_dtw` at
    ``gammas[j]`` and the last column equals :func:`dtw`, bit for bit; a
    cost that overflows gives inf, as it does in :func:`dtw`.  Pairs
    with the same ``(n, m, d)`` run together over the ``n + m - 1``
    anti-diagonals of their tables, and a pair gives the same bits alone
    as in any batch.
    """
    gammas = np.asarray(gammas, dtype=float)
    if gammas.ndim != 1:
        raise ValueError("gammas must be a flat sequence")
    if not (np.isfinite(gammas) & (gammas > 0)).all():
        raise ValueError("gamma must be finite and positive")
    xs, ys = [_as_points(x) for x in xs], [_as_points(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError("need one y per x")
    groups: dict[tuple[int, int, int], list[int]] = {}
    for k, (a, b) in enumerate(zip(xs, ys)):
        _check_dims(a, b)
        groups.setdefault((*a.shape, b.shape[0]), []).append(k)
    out = np.empty((len(xs), gammas.size + 1))
    for idx in groups.values():
        out[idx] = _wavefront(
            np.stack([xs[k].T for k in idx], axis=-1),
            np.stack([ys[k][::-1].T for k in idx], axis=-1),
            gammas[:, None],
        ).T
    return out


def soft_dtw(x, y, gamma: float) -> float:
    """Soft-min relaxation of :func:`dtw` at temperature gamma.

    Converges to the hard value as gamma -> 0.  Because the soft min
    lies below the hard min, the value can be negative; in particular
    ``soft_dtw(x, x, gamma) <= 0``.
    """
    return float(dtw_family([x], [y], [gamma])[0, 0])


def _wavefront_bytes(rows: int, n: int, m: int, d: int, tables: int) -> int:
    """Estimated bytes of one wavefront over ``rows`` pairs of ``n`` and
    ``m`` points of width ``d`` with ``tables`` tables per pair: the
    stacked points, two diagonals per table, and the filled-out gamma and
    three temporaries of the longest diagonal."""
    return 8 * rows * (d * (n + m) + tables * (2 * (n + 1) + 4 * min(n, m)))


def _wavefront(x: np.ndarray, y_rev: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Soft DTW of ``x`` against the reversed sequences ``y_rev`` at the
    temperatures ``gamma``, ``(G, 1)`` and the same for every row, then
    hard DTW: returns ``(G + 1, rows)``.

    Points are stacked rows last, ``(d, n, rows)`` and ``(d, m, rows)``,
    and so is each table's state: ``(2, n + 1, tables, rows)`` holds the
    last diagonal of each parity of ``s``, and entry ``i`` of diagonal
    ``s`` holds ``R[i, s - i]``.  A diagonal's cells are then one
    contiguous block: numpy runs a call on it as one flat loop, where a
    block with gaps or an operand broadcast into it goes through the
    iterator's buffers.  That is why the soft and the hard tables keep
    separate states, and why gamma is filled out to a whole diagonal; the
    cost diagonal, formed once per step, is the one operand broadcast
    across the tables.  Cells off the table, and its zero row and column
    past ``R[0, 0]``, are inf.
    """
    _, n, rows = x.shape
    m = y_rev.shape[1]
    inf = math.inf
    # diagonal 0 is R[0, 0] = 0 and diagonal 1 is all inf
    soft_state = np.full((2, n + 1, gamma.shape[0], rows), inf)
    hard_state = np.full((2, n + 1, 1, rows), inf)
    soft_state[0, 0] = hard_state[0, 0] = 0.0
    gamma = np.broadcast_to(gamma, (min(n, m), *soft_state.shape[2:])).copy()
    states = [(st, g) for st, g in ((soft_state, gamma), (hard_state, None)) if st.size]
    with np.errstate(over="ignore", divide="ignore"):
        for s in range(2, n + m + 1):
            lo, hi = max(1, s - m), min(n, s - 1)
            # cells (i, s - i) for i in [lo, hi]; y_rev[m - j] is y[j - 1]
            xi, yj = slice(lo - 1, hi), slice(m - s + lo, m - s + hi + 1)
            cost = np.square(x[0, xi] - y_rev[0, yj])
            for xk, yk in zip(x[1:], y_rev[1:]):
                cost += np.square(xk[xi] - yk[yj])
            cost = cost[:, None]
            for state, g in states:
                # diagonal s overwrites s - 2 once it has been read
                prev, cur = state[1 - s % 2], state[s % 2]
                up, left, diag = prev[lo - 1:hi], prev[lo:hi + 1], cur[lo - 1:hi]
                low = np.minimum(up, left)
                np.minimum(low, diag, out=low)
                if g is not None:
                    _soft_min(low, up, left, diag, g[:hi - lo + 1])
                np.add(cost, low, out=cur[lo:hi + 1])
                # the next two steps read cells lo - 1 to hi + 1 of this
                # diagonal; a cell hi + 1 <= n has never been written
                cur[lo - 1] = inf
    return np.concatenate([state[(n + m) % 2, n] for state, _ in states])


def _soft_min(low, up, left, diag, gamma) -> None:
    # low - gamma log(exp((low - up)/gamma) + exp((low - left)/gamma) +
    # exp((low - diag)/gamma)) in place, where low is the hard min.
    # Costs that overflowed leave all three predecessors inf; the clamp
    # keeps inf - inf out, so such a cell comes out inf.
    np.minimum(low, sys.float_info.max, out=low)
    total = np.subtract(low, up)
    total /= gamma
    np.exp(total, out=total)
    term = np.subtract(low, left)
    term /= gamma
    np.exp(term, out=term)
    total += term
    np.subtract(low, diag, out=term)
    term /= gamma
    np.exp(term, out=term)
    total += term
    np.log(total, out=total)
    total *= gamma
    low -= total
