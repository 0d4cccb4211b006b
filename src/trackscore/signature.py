"""Piecewise linear paths and their signatures.

The signature of a path is the collection of its iterated integrals up
to a truncation degree.  For a piecewise linear path it equals the
product of tensor exponentials of the segment increments (Chen's
identity).  :func:`signatures` evaluates it for many paths at once,
signing each stacked ``(batch, n + 1, d)`` point array of equal-length
paths in one kernel call.  Each path is cut into fixed-length chunks,
and every chunk is signed by the fused multiply-exponentiate fold
``S <- S (x) exp(delta)`` in Horner form, vectorised over all
(path, chunk) rows, so no segment exponential is ever formed.  The
increments are written straight into one buffer with the rows on the
last axis, and each numpy call runs its inner loop over all rows; the
result is bit-identical to the same fold with one row per leading
index.  The chunk products are then folded left to right, so
the cost is linear in the number of segments.  The signature depends
only on the traced-out track: reparametrization, refinement of
breakpoints and translation all leave it unchanged.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .tensor_algebra import TruncatedTensor, mul_levels, tensor_dim

__all__ = [
    "PiecewiseLinearPath",
    "CsvFormatError",
    "make_path",
    "from_time_series",
    "signature",
    "signatures",
    "concat",
    "reverse",
    "translate",
    "time_augment",
    "insert_midpoint",
    "read_paths_csv",
    "write_paths_csv",
]


# Segments per folded chunk.  Fixed, so that a path's signature is
# bit-identical whether it is signed alone or in a batch.
CHUNK_SEGMENTS = 128


class CsvFormatError(ValueError):
    """Malformed path CSV; the message carries file and line context."""


@dataclass(frozen=True, eq=False)
class PiecewiseLinearPath:
    """Polyline through ``points`` (one row per breakpoint).

    ``times`` is an optional strictly increasing parametrization of the
    breakpoints.  Operations that only depend on the track ignore it.
    ``meta`` records bookkeeping such as synthesized time grids.
    """

    points: np.ndarray
    times: np.ndarray | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.points.ndim != 2 or self.points.shape[0] < 1:
            raise ValueError("points must be a nonempty (n, d) array")
        if self.points.shape[1] < 1:
            raise ValueError("paths need at least one coordinate")
        if not np.isfinite(self.points).all() or (
            self.times is not None and not np.isfinite(self.times).all()
        ):
            raise ValueError("points and times must be finite")
        if self.times is not None:
            if self.times.shape != (self.points.shape[0],):
                raise ValueError("times must match the number of breakpoints")
            if np.any(np.diff(self.times) <= 0):
                raise ValueError("times must be strictly increasing")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_segments(self) -> int:
        return self.points.shape[0] - 1

    def increments(self) -> np.ndarray:
        return np.diff(self.points, axis=0)


def make_path(points, times=None, meta=None) -> PiecewiseLinearPath:
    """Builds a path from array-likes, coercing to float arrays."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    t = None if times is None else np.asarray(times, dtype=float).reshape(-1)
    return PiecewiseLinearPath(pts, t, dict(meta) if meta else {})


def from_time_series(rows) -> PiecewiseLinearPath:
    """Builds a timed path from an iterable of (time, value) pairs."""
    rows = list(rows)
    if not rows:
        raise ValueError("time series must contain at least one row")
    times = np.array([float(t) for t, _ in rows])
    points = np.array([np.asarray(v, dtype=float).reshape(-1) for _, v in rows])
    return make_path(points, times)


def signature(path: PiecewiseLinearPath, depth: int) -> TruncatedTensor:
    """Truncated signature, as the product of segment exponentials.
    Cost is linear in the number of segments."""
    levels = signatures([path], depth)
    return TruncatedTensor(path.dim, depth, tuple(lev[0] for lev in levels))


def signatures(paths, depth: int) -> list[np.ndarray]:
    """Signatures of several paths of one dimension, stacked by level:
    level m has shape ``(len(paths), dim**m)``.

    Paths with the same number of breakpoints are signed in one kernel
    call.  Each path's result equals :func:`signature` of that path
    bit for bit.  A request whose signing is estimated to need more than
    physical memory raises ``ValueError`` before anything is allocated.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    paths = list(paths)
    if not paths:
        raise ValueError("need at least one path")
    d = paths[0].dim
    if any(p.dim != d for p in paths):
        raise ValueError("all paths must share one dimension")
    by_length: dict[int, list[int]] = {}
    for i, p in enumerate(paths):
        by_length.setdefault(p.n_segments, []).append(i)
    need = sum(_signing_bytes(len(idx), n, d, depth) for n, idx in by_length.items())
    _check_memory(need, f"signing {_count(len(paths))} paths of width {d} at depth {depth}")
    out = [np.empty((len(paths), d**m)) for m in range(depth + 1)]
    for idx in by_length.values():
        for o, lev in zip(out, _sign_block(np.stack([paths[i].points for i in idx]), depth)):
            o[idx] = lev
    return out


def _physical_memory() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def _check_memory(need: int, what: str) -> None:
    # Refuses ``what`` when its estimated ``need`` in bytes exceeds
    # physical memory; callers check before they allocate.
    have = _physical_memory()
    if have is not None and need > have:
        raise ValueError(
            f"{what} needs an estimated {_count(need)} bytes, more than the "
            f"{_count(have)} bytes of physical memory"
        )


def _count(n: int) -> str:
    # Exact below 10**18, else the order of magnitude: math.log10 reads an
    # int of any size, where converting it to a float overflows past 1.8e308.
    return f"{n:,}" if n < 10**18 else f"about 10^{math.log10(n):.0f}"


def _signing_bytes(batch: int, n_segments: int, d: int, depth: int) -> int:
    """Estimated bytes of one kernel call on ``batch`` paths of ``n_segments``.
    Per path: 25 words of indices and row views, its stacked points and
    padded increments, its output, and per chunk an accumulator, the scaled
    increments and the top degree's Horner temporaries; with several
    chunks, their rows-first copies and the chunk fold's products.  Once:
    numpy's ufunc staging, three buffers of at most ``np.getbufsize()``."""
    chunk, n_chunks = _chunking(n_segments)
    dim, top = tensor_dim(d, depth), d**depth
    per_chunk = dim + depth * d + (top + 2 * d ** (depth - 1) if depth else 0)
    fold = n_chunks * dim + 2 * dim + top if n_chunks > 1 else 0
    per_path = 25 + (n_segments + 1 + chunk * n_chunks) * d + dim + n_chunks * per_chunk + fold
    staging = 3 * min(np.getbufsize(), batch * n_chunks * max(chunk * d, top))
    return 8 * (batch * per_path + staging)


def _chunking(n_segments: int) -> tuple[int, int]:
    """``(chunk length, chunks per path)``."""
    chunk = max(1, min(n_segments, CHUNK_SEGMENTS))
    return chunk, max(1, -(-n_segments // chunk))


def _sign_block(points: np.ndarray, depth: int) -> list[np.ndarray]:
    """Signature levels of polylines stacked as one ``(batch, n + 1, d)``
    point array.  ``n = 0`` folds one chunk of zero padding and depth 0
    folds no degree, so both return exact units."""
    batch, n, d = points.shape[0], points.shape[1] - 1, points.shape[2]
    chunk, n_chunks = _chunking(n)
    rows = batch * n_chunks
    # The increments are written straight into one contiguous (chunk, d,
    # rows) buffer, row (path, chunk) last, so each numpy call below loops
    # over all rows rather than over the d coordinates.  The full chunks,
    # then the rest, each take one copy of their segment ends and one
    # in-place subtract of their starts: a subtract of two inputs laid out
    # unlike its output stages both in ufunc buffers of up to 8192
    # elements, the whole input for small blocks; the copy stages none.
    # Zero increments pad the last chunk: folding one in adds exact zeros.
    increments = np.empty((chunk, d, rows))
    by_chunk = increments.reshape(chunk, d, batch, n_chunks)
    full = n // chunk
    ends = points[:, 1 : full * chunk + 1].reshape(batch, full, chunk, d).transpose(2, 3, 0, 1)
    starts = points[:, : full * chunk].reshape(batch, full, chunk, d).transpose(2, 3, 0, 1)
    out = by_chunk[..., :full]
    np.copyto(out, ends)
    out -= starts
    if full < n_chunks:
        rest = n - full * chunk
        tail = points[:, full * chunk :].transpose(1, 2, 0)
        out = by_chunk[:rest, :, :, full]
        np.copyto(out, tail[1:])
        out -= tail[:-1]
        by_chunk[rest:, :, :, full] = 0.0
    acc = [np.zeros((d**m, rows)) for m in range(depth + 1)]
    acc[0][:] = 1.0
    divisors = np.arange(1.0, depth + 1)[:, None, None]
    for t in range(chunk):
        scaled = increments[None, t] / divisors  # delta / j for j = 1..depth
        # Degree m of S (x) exp(delta), from the top degree down so that
        # the lower degrees it reads are still those of S:
        # ((delta/m + S_1) delta/(m-1) + ... + S_{m-1}) delta/1 + S_m
        for m in range(depth, 0, -1):
            horner = scaled[m - 1]
            for k in range(1, m):
                horner = (horner + acc[k])[:, None] * scaled[m - k - 1][None, :]
                horner = horner.reshape(-1, rows)
            acc[m] += horner
    # back to (batch, d**m) levels, C-ordered for the callers' products
    prods = [lev.T.reshape(batch, n_chunks, -1) for lev in acc]
    acc = [np.ascontiguousarray(p[:, 0]) for p in prods]
    for c in range(1, n_chunks):
        acc = mul_levels(acc, [p[:, c] for p in prods])
    return acc


def concat(x: PiecewiseLinearPath, y: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Concatenation: y is translated to start at the endpoint of x.

    Times are stitched when both operands carry them, else dropped.
    """
    if x.dim != y.dim:
        raise ValueError(f"cannot concatenate dims {x.dim} and {y.dim}")
    shifted = y.points - y.points[0] + x.points[-1]
    points = np.vstack([x.points, shifted[1:]])
    times = None
    if x.times is not None and y.times is not None:
        tail = x.times[-1] + (y.times - y.times[0])
        times = np.concatenate([x.times, tail[1:]])
    return PiecewiseLinearPath(points, times)


def reverse(x: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Runs the path backwards; a time grid is reflected in place."""
    times = None
    if x.times is not None:
        times = x.times[0] + (x.times[-1] - x.times[::-1])
    return PiecewiseLinearPath(x.points[::-1].copy(), times)


def translate(x: PiecewiseLinearPath, offset) -> PiecewiseLinearPath:
    offset = np.asarray(offset, dtype=float).reshape(-1)
    if offset.shape[0] != x.dim:
        raise ValueError("offset dimension must match the path")
    return PiecewiseLinearPath(x.points + offset, x.times, dict(x.meta))


def time_augment(x: PiecewiseLinearPath) -> PiecewiseLinearPath:
    """Prepends the parametrization as coordinate 0.

    Missing times are synthesized as 0..n with unit spacing and the
    substitution is recorded in ``meta["times_synthesized"]``.
    """
    synthesized = x.times is None
    times = np.arange(x.points.shape[0], dtype=float) if synthesized else x.times
    points = np.column_stack([times, x.points])
    meta = dict(x.meta)
    meta["times_synthesized"] = synthesized
    return PiecewiseLinearPath(points, times.copy(), meta)


def insert_midpoint(x: PiecewiseLinearPath, segment: int) -> PiecewiseLinearPath:
    """Splits one segment at its midpoint; the track is unchanged."""
    if not 0 <= segment < x.n_segments:
        raise ValueError(f"segment index {segment} out of range")
    mid = 0.5 * (x.points[segment] + x.points[segment + 1])
    points = np.insert(x.points, segment + 1, mid, axis=0)
    times = None
    if x.times is not None:
        tmid = 0.5 * (x.times[segment] + x.times[segment + 1])
        times = np.insert(x.times, segment + 1, tmid)
    return PiecewiseLinearPath(points, times)


def _open_maybe(source, mode):
    # a stream is left open; utf-8-sig drops a spreadsheet's byte order mark
    if hasattr(source, "read") or hasattr(source, "write"):
        return contextlib.nullcontext(source)
    return open(source, mode, newline="", encoding="utf-8-sig" if mode == "r" else "utf-8")


def read_paths_csv(source) -> dict[str, PiecewiseLinearPath]:
    """Reads paths from long-format CSV.

    Expected header is ``series_id,t,x1,...,xd`` where the ``t`` column
    is optional.  Rows are grouped by ``series_id`` (series ordered by
    first appearance) and sorted by ``t`` within a series.  Malformed
    content, including ``nan`` and ``inf`` values, raises
    :class:`CsvFormatError` naming the file and the first offending line.
    """
    with _open_maybe(source, "r") as f:
        name = getattr(f, "name", "<stream>")
        reader = csv.reader(f)
        first = next(reader, None)
        if first is None:
            raise CsvFormatError(f"{name}: empty file")
        header = [c.strip() for c in first]
        if not header or header[0] != "series_id":
            raise CsvFormatError(f"{name} line 1: header must start with series_id")
        has_t = len(header) > 1 and header[1] == "t"
        if len(header) - (2 if has_t else 1) < 1:
            raise CsvFormatError(f"{name} line 1: no value columns in header")
        sids, linenos, data = [], [], []
        for row in reader:
            if not row or all(not c.strip() for c in row):
                continue
            # the record's last line in the file, past any quoted newline
            lineno = reader.line_num
            if len(row) != len(header):
                raise CsvFormatError(
                    f"{name} line {lineno}: expected {len(header)} columns, "
                    f"got {len(row)}"
                )
            try:
                data.append([float(c) for c in row[1:]])
            except ValueError:
                raise CsvFormatError(
                    f"{name} line {lineno}: invalid numeric value"
                ) from None
            sids.append(row[0].strip())
            linenos.append(lineno)
    if not data:
        raise CsvFormatError(f"{name}: no data rows")
    values = np.array(data)
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        bad = linenos[int(np.argmin(finite))]
        raise CsvFormatError(f"{name} line {bad}: non-finite value")
    groups: dict[str, list[int]] = {}
    for i, sid in enumerate(sids):
        groups.setdefault(sid, []).append(i)
    out = {}
    for sid, idx in groups.items():
        block = values[idx]
        if has_t:
            block = block[np.argsort(block[:, 0], kind="stable")]
            dup = np.flatnonzero(np.diff(block[:, 0]) <= 0)
            if dup.size:
                raise CsvFormatError(
                    f"{name}: series {sid!r} has duplicate time "
                    f"{float(block[dup[0] + 1, 0])!r}"
                )
            out[sid] = make_path(block[:, 1:], block[:, 0])
        else:
            out[sid] = make_path(block)
    return out


def write_paths_csv(series: dict[str, PiecewiseLinearPath], dest) -> None:
    """Writes paths in the long CSV format read by :func:`read_paths_csv`.

    A missing time grid is written as 0..n with unit spacing.
    """
    if not series:
        raise ValueError("nothing to write")
    dims = {p.dim for p in series.values()}
    if len(dims) != 1:
        raise ValueError("all series must share one dimension")
    header = ["series_id", "t", *(f"x{i + 1}" for i in range(dims.pop()))]
    rows = []
    for sid, path in series.items():
        times = np.arange(path.points.shape[0]) if path.times is None else path.times
        block = np.column_stack([times, path.points]).astype(float, copy=False)
        rows.extend([sid, *row] for row in block.tolist())
    with _open_maybe(dest, "w") as f:
        f.write(format_csv(header, rows))


def format_csv(header, rows) -> str:
    """Deterministic CSV serialization in the dialect
    :func:`read_paths_csv` reads, unix newlines: floats (numpy's too) as
    the repr of the Python float, ``None`` as an empty cell, anything
    else by ``str``; a cell with a comma, a quote or a newline is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(
        [repr(float(c)) if isinstance(c, (float, np.floating)) else "" if c is None else str(c)
         for c in row]
        for row in rows
    )
    return buf.getvalue()
