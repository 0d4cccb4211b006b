"""Independent reference computations used to pin expected values.

The iterated-integral oracle evaluates signature coefficients by direct
Riemann-sum quadrature over the order simplex, never touching the
product-of-exponentials code path under test.  Degree k is built from
the running degree-(k-1) integral by trapezoidal accumulation; on a
piecewise linear path the degree-1 integrand is exact and higher
degrees converge at second order in the subdivision width.

The row-major fold is the signature kernel's earlier layout, one
(path, chunk) row per leading index and the tensor coordinates on the
last axis, and its pairwise reduction multiplies one pair of chunk
products per call.  It performs the same floating-point operations in
the same order as ``signature._sign_block``, so the two must agree bit
for bit.

The soft-DTW oracle is the textbook row-by-row recursion in Python
floats, one cell at a time, with its own cost matrix.
"""

from __future__ import annotations

import math

import numpy as np

from trackscore.signature import _chunking
from trackscore.tensor_algebra import TruncatedTensor, mul_levels


def refine_polyline(points: np.ndarray, subdivisions: int) -> np.ndarray:
    """Inserts ``subdivisions - 1`` evenly spaced nodes per segment."""
    pts = [points[:1]]
    for a, b in zip(points[:-1], points[1:]):
        lam = np.linspace(0.0, 1.0, subdivisions + 1)[1:, None]
        pts.append(a + lam * (b - a))
    return np.vstack(pts)


def iterated_integrals(points, depth: int, subdivisions: int = 200) -> TruncatedTensor:
    """Signature coefficients by quadrature over the refined polyline."""
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    d = points.shape[1]
    fine = refine_polyline(points, subdivisions)
    dx = np.diff(fine, axis=0)  # (n, d)
    n = dx.shape[0]
    levels = [np.ones(1)]
    # running[t] = degree-k integral over [0, t], at the n+1 nodes
    running = np.ones((n + 1, 1))
    for _ in range(depth):
        avg = 0.5 * (running[:-1] + running[1:])  # (n, d**(k-1))
        contrib = np.einsum("ti,tj->tij", avg, dx).reshape(n, -1)
        running = np.vstack([np.zeros((1, contrib.shape[1])), np.cumsum(contrib, axis=0)])
        levels.append(running[-1].copy())
    return TruncatedTensor(d, depth, tuple(levels))


def sign_rows_fold(points, depth: int) -> list[np.ndarray]:
    """Signature levels ``(batch, d**m)`` of equal-shape ``(n + 1, d)``
    polylines, by the Horner fold ``S <- S (x) exp(delta)`` over the
    kernel's balanced chunks with rows first, then a pairwise reduction
    of the chunk products: adjacent pairs multiplied one at a time, level
    by level, an odd last product carried up unmultiplied."""
    batch, n, d = len(points), points[0].shape[0] - 1, points[0].shape[1]
    chunk, n_chunks = _chunking(n, d, depth)
    increments = np.zeros((batch, n_chunks * chunk, d))
    for inc, pts in zip(increments, points):
        inc[:n] = np.diff(pts, axis=0)
    rows = increments.reshape(batch * n_chunks, chunk, d)
    acc = [np.zeros((rows.shape[0], d**m)) for m in range(depth + 1)]
    acc[0][:] = 1.0
    if n == 0 or depth == 0:
        return [lev[:batch] for lev in acc]
    divisors = np.arange(1.0, depth + 1)[:, None, None]
    for t in range(chunk):
        scaled = rows[None, :, t] / divisors
        for m in range(depth, 0, -1):
            horner = scaled[m - 1]
            for k in range(1, m):
                horner = (horner + acc[k])[:, :, None] * scaled[m - k - 1][:, None, :]
                horner = horner.reshape(rows.shape[0], -1)
            acc[m] += horner
    prods = [[lev.reshape(batch, n_chunks, -1)[:, c] for lev in acc] for c in range(n_chunks)]
    while len(prods) > 1:
        carried = prods[-1:] if len(prods) % 2 else []
        prods = [mul_levels(a, b) for a, b in zip(prods[::2], prods[1::2])] + carried
    return prods[0]


def soft_dtw_loop(x, y, gamma: float) -> float:
    """Soft DTW by the scalar recursion over the full DP table."""
    a = np.asarray(x, dtype=float).reshape(len(x), -1)
    b = np.asarray(y, dtype=float).reshape(len(y), -1)
    cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1).tolist()

    def softmin3(p: float, q: float, r: float) -> float:
        low = min(p, q, r)
        if low == math.inf:
            return low
        total = (
            math.exp(-(p - low) / gamma)
            + math.exp(-(q - low) / gamma)
            + math.exp(-(r - low) / gamma)
        )
        return low - gamma * math.log(total)

    prev = [0.0] + [math.inf] * len(b)
    for row in cost:
        cur = [math.inf] * (len(b) + 1)
        for j in range(1, len(b) + 1):
            cur[j] = row[j - 1] + softmin3(prev[j], cur[j - 1], prev[j - 1])
        prev = cur
    return prev[len(b)]
