"""Reference computations the benchmark checks the program against.

Written from the definitions with numpy only and sharing no code with
the package: signatures as Chen products of segment exponentials,
reduced pairwise (a different summation order from the package's left
fold); the quadratic form ``Q = E[A^T A]`` assembled by applying the
side multiplication to basis tensors; the Bayes act in closed form,
``u* = Q^-1 e0 / (Q^-1)_00`` with entropy ``1/(Q^-1)_00 - 1``; and hard
and soft DTW as anti-diagonal wavefronts.

A truncated tensor batch is a list ``lv`` with ``lv[m]`` of shape
``(..., d**m)``; ``lv[0]`` holds the scalar part with shape ``(..., 1)``.
"""

from __future__ import annotations

import numpy as np


def segment_exp(v: np.ndarray, depth: int) -> list[np.ndarray]:
    """Tensor exponentials of increments ``v`` of shape ``(..., d)``."""
    lv = [np.ones(v.shape[:-1] + (1,))]
    for m in range(1, depth + 1):
        outer = lv[-1][..., :, None] * v[..., None, :]
        lv.append(outer.reshape(v.shape[:-1] + (-1,)) / m)
    return lv


def tensor_mul(a: list[np.ndarray], b: list[np.ndarray]) -> list[np.ndarray]:
    """Truncated tensor product of two broadcastable batches."""
    out = []
    for m in range(len(a)):
        acc = 0.0
        for k in range(m + 1):
            prod = a[k][..., :, None] * b[m - k][..., None, :]
            acc = acc + prod.reshape(prod.shape[:-2] + (-1,))
        out.append(acc)
    return out


def signatures(points: np.ndarray, depth: int) -> list[np.ndarray]:
    """Signatures of a batch of equal-length polylines.

    ``points`` has shape ``(batch, n + 1, d)``.  Segment exponentials
    are combined by pairwise Chen products until one factor is left.
    """
    lv = segment_exp(np.diff(points, axis=1), depth)
    while lv[0].shape[1] > 1:
        n = lv[0].shape[1]
        even = n - n % 2
        paired = tensor_mul([x[:, 0:even:2] for x in lv], [x[:, 1:even:2] for x in lv])
        if n % 2:
            paired = [np.concatenate([p, x[:, -1:]], axis=1) for p, x in zip(paired, lv)]
        lv = paired
    return [x[:, 0] for x in lv]


def flat(lv: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(lv, axis=-1)


def _basis(width: int, depth: int) -> list[np.ndarray]:
    dim = sum(width**m for m in range(depth + 1))
    eye = np.eye(dim)
    out, off = [], 0
    for m in range(depth + 1):
        out.append(eye[:, off:off + width**m])
        off += width**m
    return out


def side_matrices(sigs: list[np.ndarray], side: str) -> np.ndarray:
    """Matrices of ``x -> sig x`` (right side) or ``x -> x sig`` (left),
    shape ``(batch, D, D)`` acting on flattened coefficient vectors."""
    width, depth = sigs[1].shape[-1], len(sigs) - 1
    g = [s[:, None, :] for s in sigs]
    e = _basis(width, depth)
    cols = tensor_mul(g, e) if side == "right" else tensor_mul(e, g)
    return np.swapaxes(flat(cols), 1, 2)


def quad_form(sigs: list[np.ndarray], side: str) -> np.ndarray:
    """``Q = mean_i A_i^T A_i`` for the uniform measure over ``sigs``."""
    A = side_matrices(sigs, side)
    return np.einsum("bij,bik->jk", A, A) / A.shape[0]


def closed_form_act(Q: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimiser of ``x^T Q x`` over ``x0 = 1`` and the entropy there."""
    e0 = np.zeros(Q.shape[0])
    e0[0] = 1.0
    z = np.linalg.solve(Q, e0)
    return z / z[0], 1.0 / z[0] - 1.0


def expected_loss(Q: np.ndarray, u: np.ndarray) -> float:
    """Expected loss at the act ``u^-1`` of the measure with form Q.

    The scalar coefficient of ``sig u`` is ``u0 = 1``, which the loss
    leaves out.
    """
    return float(u @ Q @ u) - 1.0


def dtw(a: np.ndarray, b: np.ndarray, gamma: float = 0.0) -> float:
    """DTW with squared Euclidean cost, one anti-diagonal at a time.

    ``gamma = 0`` is hard DTW; a positive gamma replaces the minimum
    over the three predecessors by the soft minimum at that temperature.
    """
    cost = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
    n, m = cost.shape
    D = np.full((n + 1, m + 1), np.inf)
    D[0, 0] = 0.0
    for s in range(2, n + m + 1):
        i = np.arange(max(1, s - m), min(n, s - 1) + 1)
        j = s - i
        prev = np.stack([D[i - 1, j], D[i, j - 1], D[i - 1, j - 1]])
        best = prev.min(axis=0)
        if gamma > 0:
            best = best - gamma * np.log(np.exp(-(prev - best) / gamma).sum(axis=0))
        D[i, j] = cost[i - 1, j - 1] + best
    return float(D[n, m])
