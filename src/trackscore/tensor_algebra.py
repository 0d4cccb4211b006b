"""Truncated tensor algebra over R^d with product, inverse and antipode.

An element is a tuple of dense coefficient arrays, one per tensor degree
``0..depth``.  The degree-m array has length ``width**m`` and is indexed
by multi-indices ``(i_1, ..., i_m)`` in row-major lexicographic order,
so the flat position of a multi-index is ``sum(i_k * width**(m-k))``
with ``i_k`` counted from zero.  Degrees above the truncation depth are
discarded by every operation (quotient semantics).

All functions are pure and use a fixed summation order, so identical
inputs give bit-identical outputs.

The products, inverses and exponentials are computed by batch kernels
(``mul_levels``, ``inverse_levels``, ``exp_levels``) on level lists
whose arrays carry leading batch axes: ``levels[m]`` has shape
``(..., width**m)``, and ``(rows, width**m)`` for ``inverse_levels``.
They work elementwise along the batch axes, so an element's result does
not depend on the batch it is computed in.  ``mul``, ``inverse`` and
``exp_of_vector`` are thin wrappers over them.  ``mul_levels`` is the one
product kernel: the multiplication matrices are it applied to the basis.
``split_levels`` cuts flat vectors ``(..., D)`` into a level batch, with
``unflatten`` its one-row case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "TruncatedTensor",
    "DimensionMismatchError",
    "NonInvertibleError",
    "unit",
    "zero",
    "add",
    "sub",
    "scale",
    "mul",
    "mul_levels",
    "inverse",
    "inverse_levels",
    "antipode",
    "exp_of_vector",
    "exp_levels",
    "dilate",
    "inner",
    "norm",
    "drop_scalar",
    "is_unital",
    "is_grouplike",
    "lmul_matrix",
    "rmul_matrix",
    "unstack",
    "tensor_dim",
    "flatten",
    "unflatten",
    "split_levels",
    "to_text",
    "from_text",
]

# Scalar parts closer to zero than this cannot be inverted stably.
INVERTIBILITY_TOL = 1e-12

# Largest distance of a unital tensor's scalar part from one.
UNITAL_TOL = 1e-12

# Relative tolerance for the group-likeness predicate.
GROUPLIKE_REL_TOL = 1e-9


class DimensionMismatchError(ValueError):
    """Operands disagree in width or truncation depth."""


class NonInvertibleError(ValueError):
    """Scalar part is too close to zero for the inverse series."""


@dataclass(frozen=True, eq=False)
class TruncatedTensor:
    """Element of the tensor algebra truncated at a fixed degree.

    Attributes:
        width: dimension d of the underlying vector space.
        depth: truncation degree M; degrees above it are dropped.
        levels: tuple of flat float arrays, ``levels[m]`` has length
            ``width**m``.  ``levels[0]`` is the scalar part.
    """

    width: int
    depth: int
    levels: tuple[np.ndarray, ...]

    def __post_init__(self):
        if self.width < 1:
            raise ValueError("width must be at least 1")
        if self.depth < 0:
            raise ValueError("depth must be nonnegative")
        if len(self.levels) != self.depth + 1:
            raise ValueError(
                f"expected {self.depth + 1} levels, got {len(self.levels)}"
            )
        for m, lev in enumerate(self.levels):
            if lev.shape != (self.width**m,):
                raise ValueError(
                    f"level {m} must have shape ({self.width ** m},), "
                    f"got {lev.shape}"
                )

    @property
    def scalar(self) -> float:
        return float(self.levels[0][0])

    def level(self, m: int) -> np.ndarray:
        return self.levels[m]

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __neg__(self):
        return scale(-1.0, self)

    def __mul__(self, c):
        if isinstance(c, TruncatedTensor):
            return NotImplemented
        return scale(float(c), self)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return mul(self, other)

    def __repr__(self):
        return (
            f"TruncatedTensor(width={self.width}, depth={self.depth}, "
            f"scalar={self.scalar!r}, norm={norm(self)!r})"
        )


def _check_match(s: TruncatedTensor, t: TruncatedTensor) -> None:
    if s.width != t.width or s.depth != t.depth:
        raise DimensionMismatchError(
            f"operands have width/depth ({s.width},{s.depth}) vs "
            f"({t.width},{t.depth})"
        )


def unit(width: int, depth: int) -> TruncatedTensor:
    """Multiplicative unit (1, 0, 0, ...)."""
    levels = [np.zeros(width**m) for m in range(depth + 1)]
    levels[0][0] = 1.0
    return TruncatedTensor(width, depth, tuple(levels))


def zero(width: int, depth: int) -> TruncatedTensor:
    levels = tuple(np.zeros(width**m) for m in range(depth + 1))
    return TruncatedTensor(width, depth, levels)


def add(s: TruncatedTensor, t: TruncatedTensor) -> TruncatedTensor:
    _check_match(s, t)
    return TruncatedTensor(
        s.width, s.depth, tuple(a + b for a, b in zip(s.levels, t.levels))
    )


def sub(s: TruncatedTensor, t: TruncatedTensor) -> TruncatedTensor:
    _check_match(s, t)
    return TruncatedTensor(
        s.width, s.depth, tuple(a - b for a, b in zip(s.levels, t.levels))
    )


def scale(c: float, t: TruncatedTensor) -> TruncatedTensor:
    c = float(c)
    return TruncatedTensor(t.width, t.depth, tuple(c * lev for lev in t.levels))


def _outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Batched flat outer product: (..., p) x (..., q) -> (..., p*q).
    prod = a[..., :, None] * b[..., None, :]
    return prod.reshape(prod.shape[:-2] + (-1,))


def mul_levels(a, b) -> list[np.ndarray]:
    """Truncated tensor product of two level batches that broadcast
    against each other: degree m is ``sum_k a_k (x) b_{m-k}``."""
    out = []
    for m in range(len(a)):
        acc = _outer(a[0], b[m])  # a fresh array of the full batch shape
        for k in range(1, m + 1):
            acc += _outer(a[k], b[m - k])
        out.append(acc)
    return out


def mul(s: TruncatedTensor, t: TruncatedTensor) -> TruncatedTensor:
    """Truncated tensor product: degree m of the result is
    ``sum_k s_k (x) t_{m-k}``."""
    _check_match(s, t)
    return TruncatedTensor(s.width, s.depth, tuple(mul_levels(s.levels, t.levels)))


def inverse(t: TruncatedTensor) -> TruncatedTensor:
    """Multiplicative inverse via the geometric series in (1 - t/t_0).

    The series terminates because 1 - t/t_0 has zero scalar part, so its
    powers vanish below the truncation depth.
    """
    inv = inverse_levels([lev[None] for lev in t.levels])
    return TruncatedTensor(t.width, t.depth, tuple(lev[0] for lev in inv))


def inverse_levels(levels) -> list[np.ndarray]:
    """:func:`inverse` of each row of a level batch ``(rows, d**m)``.

    Raises :class:`NonInvertibleError` if any row's scalar part is too
    close to zero.
    """
    t0 = levels[0][:, :1]
    bad = np.abs(t0) <= INVERTIBILITY_TOL
    if bad.any():
        raise NonInvertibleError(
            f"scalar part {float(t0[bad][0])!r} is too close to zero to invert"
        )
    c = 1.0 / t0
    one = [np.zeros_like(lev) for lev in levels]
    one[0][:] = 1.0
    u = [a - c * b for a, b in zip(one, levels)]
    acc = one
    for _ in range(len(levels) - 1):
        acc = [a + b for a, b in zip(one, mul_levels(u, acc))]
    return [c * lev for lev in acc]


def antipode(t: TruncatedTensor) -> TruncatedTensor:
    """Reverses every multi-index and flips the sign of odd degrees."""
    d = t.width
    out = [t.levels[0].copy()]
    for m in range(1, t.depth + 1):
        arr = t.levels[m]
        if m > 1:
            arr = arr.reshape((d,) * m).transpose(range(m - 1, -1, -1)).reshape(-1)
        out.append(-arr if m % 2 else arr.copy())
    return TruncatedTensor(t.width, t.depth, tuple(out))


def exp_levels(v, depth: int) -> list[np.ndarray]:
    """Tensor exponentials of a batch of vectors ``v`` of shape
    ``(..., d)``: degree m is ``v^(x)m / m!``."""
    v = np.asarray(v, dtype=float)
    levels = [np.ones(v.shape[:-1] + (1,))]
    for m in range(1, depth + 1):
        lev = _outer(levels[-1], v)
        lev /= m
        levels.append(lev)
    return levels


def exp_of_vector(v, depth: int) -> TruncatedTensor:
    """Tensor exponential of a degree-one element: degree m is
    ``v^(x)m / m!``."""
    v = np.asarray(v, dtype=float).reshape(-1)
    return TruncatedTensor(v.shape[0], depth, tuple(exp_levels(v, depth)))


def dilate(lam: float, t: TruncatedTensor) -> TruncatedTensor:
    """Grading dilation: degree m is scaled by lam**m."""
    lam = float(lam)
    out = [t.levels[0].copy()]
    fac = 1.0
    for m in range(1, t.depth + 1):
        fac *= lam
        out.append(fac * t.levels[m])
    return TruncatedTensor(t.width, t.depth, tuple(out))


def inner(s: TruncatedTensor, t: TruncatedTensor) -> float:
    """l2 inner product over all degrees and multi-indices."""
    _check_match(s, t)
    return float(sum(a @ b for a, b in zip(s.levels, t.levels)))


def norm(t: TruncatedTensor) -> float:
    return float(np.sqrt(sum(lev @ lev for lev in t.levels)))


def drop_scalar(t: TruncatedTensor) -> TruncatedTensor:
    """Zeroes the scalar part, projecting onto degrees >= 1."""
    out = [np.zeros(1)]
    out.extend(lev.copy() for lev in t.levels[1:])
    return TruncatedTensor(t.width, t.depth, tuple(out))


def is_unital(t: TruncatedTensor) -> bool:
    return abs(t.scalar - 1.0) <= UNITAL_TOL


def is_grouplike(t: TruncatedTensor) -> bool:
    """Tests whether the antipode inverts t, i.e. antipode(t) * t = 1."""
    if abs(t.scalar) <= INVERTIBILITY_TOL:
        return False
    resid = sub(mul(antipode(t), t), unit(t.width, t.depth))
    return norm(resid) <= GROUPLIKE_REL_TOL * (1.0 + norm(t))


def tensor_dim(width: int, depth: int) -> int:
    """Total number of coefficients of a tensor with given shape."""
    return sum(width**m for m in range(depth + 1))


def _level_offsets(width: int, depth: int) -> list[int]:
    offs = [0]
    for m in range(depth + 1):
        offs.append(offs[-1] + width**m)
    return offs


def flatten(t: TruncatedTensor) -> np.ndarray:
    return np.concatenate(t.levels)


def split_levels(vecs: np.ndarray, width: int, depth: int) -> list[np.ndarray]:
    """Views ``(..., width**m)`` of the degree blocks of flat vectors ``(..., D)``."""
    offs = _level_offsets(width, depth)
    if vecs.shape[-1] != offs[-1]:
        raise ValueError(f"expected vectors of length {offs[-1]}, got {vecs.shape[-1]}")
    return [vecs[..., a:b] for a, b in zip(offs, offs[1:])]


def unflatten(vec: np.ndarray, width: int, depth: int) -> TruncatedTensor:
    vec = np.asarray(vec, dtype=float).reshape(-1)
    levels = tuple(lev.copy() for lev in split_levels(vec, width, depth))
    return TruncatedTensor(width, depth, levels)


def _basis(g: TruncatedTensor) -> list[np.ndarray]:
    # The basis tensors e_b as rows: column b of g's matrices is g * e_b or e_b * g.
    return split_levels(np.eye(tensor_dim(g.width, g.depth)), g.width, g.depth)


def lmul_matrix(g: TruncatedTensor) -> np.ndarray:
    """Matrix of x -> g * x acting on flattened coefficient vectors."""
    return np.concatenate(mul_levels(g.levels, _basis(g)), axis=-1).T


def rmul_matrix(g: TruncatedTensor) -> np.ndarray:
    """Matrix of x -> x * g acting on flattened coefficient vectors."""
    return np.concatenate(mul_levels(_basis(g), g.levels), axis=-1).T


def unstack(levels, width: int) -> list[TruncatedTensor]:
    """Splits a level batch with one leading axis into tensors."""
    depth = len(levels) - 1
    return [
        TruncatedTensor(width, depth, tuple(lev[i] for lev in levels))
        for i in range(levels[0].shape[0])
    ]


def to_text(t: TruncatedTensor) -> str:
    """Serializes to a self-describing text record.

    First line is ``width,depth``; line 2+m holds the degree-m
    coefficients, comma separated, with 17 significant digits (enough to
    round-trip doubles exactly).
    """
    lines = [f"{t.width},{t.depth}"]
    for lev in t.levels:
        lines.append(",".join(f"{x:.17g}" for x in lev))
    return "\n".join(lines) + "\n"


def from_text(text: str) -> TruncatedTensor:
    """Parses the record format produced by :func:`to_text`."""
    lines = [ln for ln in text.splitlines()]
    while lines and not lines[-1].strip():
        lines.pop()
    if not lines:
        raise ValueError("empty tensor record")
    head = lines[0].split(",")
    if len(head) != 2:
        raise ValueError("line 1: header must be 'width,depth'")
    try:
        width, depth = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ValueError(f"line 1: bad header {lines[0]!r}") from exc
    if width < 1 or depth < 0:
        raise ValueError(f"line 1: invalid shape ({width},{depth})")
    if len(lines) != depth + 2:
        raise ValueError(
            f"expected {depth + 2} lines for depth {depth}, got {len(lines)}"
        )
    levels = []
    for m in range(depth + 1):
        toks = lines[1 + m].split(",")
        if len(toks) != width**m:
            raise ValueError(
                f"line {m + 2}: degree {m} needs {width ** m} values, "
                f"got {len(toks)}"
            )
        try:
            levels.append(np.array([float(tok) for tok in toks]))
        except ValueError as exc:
            raise ValueError(f"line {m + 2}: invalid number") from exc
    return TruncatedTensor(width, depth, tuple(levels))
