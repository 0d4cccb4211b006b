"""Signature map, path operations and CSV ingestion."""

import importlib
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from trackscore.signature import (
    CsvFormatError,
    PiecewiseLinearPath,
    _chunking,
    _sign_block,
    _signing_bytes,
    concat,
    from_time_series,
    insert_midpoint,
    make_path,
    read_paths_csv,
    reverse,
    signature,
    signatures,
    time_augment,
    translate,
    write_paths_csv,
)
from trackscore.tensor_algebra import (
    antipode,
    dilate,
    exp_of_vector,
    inverse,
    is_grouplike,
    mul,
    mul_levels,
    norm,
    unit,
    unstack,
)

from oracles import iterated_integrals, sign_rows_fold


# the module, whose name the package's signature() function shadows
signature_module = importlib.import_module("trackscore.signature")


def random_path(rng, n_segments, dim=2, scale=1.0):
    steps = scale * rng.standard_normal((n_segments, dim))
    return make_path(np.vstack([np.zeros(dim), np.cumsum(steps, axis=0)]))


def test_axis_staircase_frozen_values():
    p = make_path([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
    s = signature(p, 2)
    np.testing.assert_allclose(s.level(1), [1.0, 1.0])
    np.testing.assert_allclose(s.level(2), [0.5, 1.0, 0.0, 0.5])


def test_single_segment_is_exponential():
    from trackscore.tensor_algebra import exp_of_vector

    v = np.array([0.3, -1.2])
    p = make_path([[0.0, 0.0], v])
    s = signature(p, 5)
    assert norm(s - exp_of_vector(v, 5)) <= 1e-14


def test_signature_is_grouplike():
    rng = np.random.default_rng(0)
    s = signature(random_path(rng, 7), 4)
    assert is_grouplike(s)


def test_chen_identity():
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = random_path(rng, 4)
        y = random_path(rng, 6)
        lhs = signature(concat(x, y), 4)
        rhs = mul(signature(x, 4), signature(y, 4))
        assert norm(lhs - rhs) <= 1e-12 * max(1.0, norm(rhs))


def test_reversal_matches_antipode_and_inverse():
    rng = np.random.default_rng(2)
    x = random_path(rng, 5)
    s = signature(x, 4)
    r = signature(reverse(x), 4)
    assert norm(r - antipode(s)) <= 1e-12
    assert norm(r - inverse(s)) <= 1e-10
    back = mul(s, r)
    assert norm(back - unit(2, 4)) <= 1e-12


def test_refinement_and_translation_invariance():
    rng = np.random.default_rng(3)
    x = random_path(rng, 6)
    s = signature(x, 4)
    refined = insert_midpoint(insert_midpoint(x, 2), 0)
    assert norm(signature(refined, 4) - s) <= 1e-13
    shifted = translate(x, [3.5, -1.0])
    assert norm(signature(shifted, 4) - s) <= 1e-13


def test_dilation_homogeneity():
    rng = np.random.default_rng(4)
    x = random_path(rng, 5)
    lam = 1.7
    scaled = make_path(lam * x.points)
    assert norm(signature(scaled, 4) - dilate(lam, signature(x, 4))) <= 1e-12


def test_factorial_decay():
    rng = np.random.default_rng(5)
    x = random_path(rng, 10)
    var = float(np.linalg.norm(np.diff(x.points, axis=0), axis=1).sum())
    s = signature(x, 6)
    fact = 1.0
    for m in range(1, 7):
        fact *= m
        assert np.linalg.norm(s.level(m)) <= var**m / fact + 1e-12


def test_depth_zero_and_empty():
    p = make_path([[0.0, 0.0], [1.0, 2.0]])
    assert norm(signature(p, 0) - unit(2, 0)) == 0.0
    single = make_path([[0.4, 0.2]])
    assert norm(signature(single, 3) - unit(2, 3)) == 0.0
    with pytest.raises(ValueError):
        signature(p, -1)


def test_oracle_agreement():
    rng = np.random.default_rng(6)
    for _ in range(3):
        x = random_path(rng, 3)
        s = signature(x, 3)
        o = iterated_integrals(x.points, 3, subdivisions=400)
        assert norm(s - o) <= 1e-5 * max(1.0, norm(s))


def test_times_validation_and_reverse_reflection():
    with pytest.raises(ValueError):
        make_path([[0.0], [1.0], [2.0]], times=[0.0, 2.0, 1.0])
    x = make_path([[0.0], [1.0], [3.0]], times=[0.0, 1.0, 4.0])
    r = reverse(x)
    np.testing.assert_allclose(r.times, [0.0, 3.0, 4.0])
    np.testing.assert_allclose(r.points[:, 0], [3.0, 1.0, 0.0])


def test_concat_times_stitched_only_when_both_present():
    a = make_path([[0.0], [1.0]], times=[0.0, 2.0])
    b = make_path([[5.0], [7.0]], times=[1.0, 2.0])
    ab = concat(a, b)
    np.testing.assert_allclose(ab.times, [0.0, 2.0, 3.0])
    np.testing.assert_allclose(ab.points[:, 0], [0.0, 1.0, 3.0])
    c = make_path([[0.0], [1.0]])
    assert concat(a, c).times is None
    with pytest.raises(ValueError):
        concat(a, make_path([[0.0, 0.0], [1.0, 1.0]]))


def test_time_augment():
    x = make_path([[1.0, 2.0], [3.0, 4.0]])
    aug = time_augment(x)
    assert aug.dim == 3
    np.testing.assert_allclose(aug.points[:, 0], [0.0, 1.0])
    assert aug.meta["times_synthesized"] is True
    timed = make_path([[1.0], [2.0]], times=[0.5, 0.75])
    aug2 = time_augment(timed)
    np.testing.assert_allclose(aug2.points[:, 0], [0.5, 0.75])
    assert aug2.meta["times_synthesized"] is False


def test_from_time_series():
    p = from_time_series([(0.0, [1.0, 0.0]), (1.0, [2.0, 1.0])])
    assert p.dim == 2
    np.testing.assert_allclose(p.times, [0.0, 1.0])


def test_read_paths_csv_grouping_and_sorting():
    text = (
        "series_id,t,x1,x2\n"
        "b,1.0,3.0,4.0\n"
        "a,0.0,0.0,0.0\n"
        "b,0.0,1.0,2.0\n"
        "a,1.0,1.0,1.0\n"
    )
    series = read_paths_csv(io.StringIO(text))
    assert list(series) == ["b", "a"]  # first-appearance order
    np.testing.assert_allclose(series["b"].points, [[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_allclose(series["b"].times, [0.0, 1.0])


def test_read_paths_csv_without_time_column():
    text = "series_id,x1\nu,1.0\nu,2.0\n"
    series = read_paths_csv(io.StringIO(text))
    assert series["u"].times is None
    np.testing.assert_allclose(series["u"].points[:, 0], [1.0, 2.0])


def test_read_paths_csv_errors_name_lines():
    with pytest.raises(CsvFormatError, match="empty file"):
        read_paths_csv(io.StringIO(""))
    with pytest.raises(CsvFormatError, match="line 1"):
        read_paths_csv(io.StringIO("id,t,x1\nu,0.0,1.0\n"))
    with pytest.raises(CsvFormatError, match="line 3"):
        read_paths_csv(io.StringIO("series_id,t,x1\nu,0.0,1.0\nu,1.0\n"))
    with pytest.raises(CsvFormatError, match="line 2"):
        read_paths_csv(io.StringIO("series_id,t,x1\nu,zero,1.0\n"))
    with pytest.raises(CsvFormatError, match="series 'u'"):
        read_paths_csv(io.StringIO("series_id,t,x1\nu,1.0,1.0\nu,1.0,2.0\n"))
    with pytest.raises(CsvFormatError, match="no data rows"):
        read_paths_csv(io.StringIO("series_id,t,x1\n\n"))


def test_read_paths_csv_errors_cite_lines_in_the_file():
    # a quoted id spanning two lines moves every later record down a line
    text = 'series_id,t,x1\n"e\nf",0.0,1.0\n"e\nf",1.0,2.0\nu,zero,1.0\n'
    with pytest.raises(CsvFormatError, match="line 6:"):
        read_paths_csv(io.StringIO(text))
    # a stream without a name is named by a placeholder, not its address
    with pytest.raises(CsvFormatError, match="^<stream> line 1:"):
        read_paths_csv(io.StringIO("id,t,x1\nu,0.0,1.0\n"))
    # the csv reader's own refusals carry the line it reached
    with pytest.raises(CsvFormatError, match="^<stream> line 3: field larger than field limit"):
        read_paths_csv(io.StringIO("series_id,t,x1\nu,0.0,1.0\n" + "v" * 200_000 + ",0.0,1.0\n"))
    with pytest.raises(CsvFormatError, match="^<stream> line 2: new-line character seen"):
        read_paths_csv(io.StringIO("series_id,t,x1\na\rb,0.0,1.0\n"))


def test_read_paths_csv_accepts_byte_order_mark(tmp_path):
    src = tmp_path / "bom.csv"
    src.write_bytes(b"\xef\xbb\xbfseries_id,t,x1\nu,0.0,1.0\nu,1.0,3.0\n")
    np.testing.assert_array_equal(read_paths_csv(src)["u"].points, [[1.0], [3.0]])


def test_write_read_roundtrip():
    rng = np.random.default_rng(7)
    ids = ["p", "q", "a,b", 'c"d', "e\nf", "a\rb"]
    series = {
        sid: make_path(random_path(rng, n).points, np.cumsum(rng.uniform(0.1, 1.0, n + 1)))
        for sid, n in zip(ids, (3, 5, 0, 2, 4, 1))
    }
    buf = io.StringIO()
    write_paths_csv(series, buf)
    back = read_paths_csv(io.StringIO(buf.getvalue()))
    assert list(back) == ids
    for sid, path in series.items():
        assert np.array_equal(back[sid].points, path.points)
        assert np.array_equal(back[sid].times, path.times)


def test_path_validation():
    with pytest.raises(ValueError):
        make_path(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        make_path([[0.0], [1.0]], times=[0.0])
    p = PiecewiseLinearPath(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert p.n_segments == 1
    np.testing.assert_allclose(p.increments(), [[2.0, 2.0]])


def _folded_signature(x, depth):
    # reference: left fold of segment exponentials, one product per step
    acc = unit(x.dim, depth)
    for v in x.increments():
        acc = mul(acc, exp_of_vector(v, depth))
    return acc


@pytest.mark.parametrize("depth", [0, 1, 3])
def test_batch_kernel_matches_fold_and_oracle(depth):
    rng = np.random.default_rng(8)
    # 0 and 1 segments, odd lengths, and at width 2 and these depths the
    # chunk bound 32: one below, at and above it, three chunks, four of
    # 25 segments and 625 of 32
    for n_segments in (0, 1, 2, 5, 7, 31, 32, 33, 95, 100, 20_000):
        count = 1 if n_segments > 100 else 3
        paths = [random_path(rng, n_segments, scale=0.3) for _ in range(count)]
        batch = unstack(signatures(paths, depth), 2)
        for x, s in zip(paths, batch):
            ref = _folded_signature(x, depth)
            assert norm(s - ref) <= 1e-13 * max(1.0, norm(ref))
            assert norm(signature(x, depth) - ref) <= 1e-13 * max(1.0, norm(ref))
            if 0 < n_segments <= 7:
                o = iterated_integrals(x.points, depth, subdivisions=400)
                assert norm(s - o) <= 1e-5 * max(1.0, norm(o))


def test_signature_bit_identical_alone_and_in_any_batch():
    rng = np.random.default_rng(9)
    for n_segments in (5, 31, 32, 33, 95, 100, 20_000):
        paths = [random_path(rng, n_segments, scale=0.3) for _ in range(40)]
        alone = [signature(x, 4) for x in paths]
        for lo, hi in ((0, 40), (3, 4), (7, 30)):
            batch = unstack(signatures(paths[lo:hi], 4), 2)
            for s, ref in zip(batch, alone[lo:hi]):
                for a, b in zip(s.levels, ref.levels):
                    assert np.array_equal(a, b)
    # mixed lengths are signed per length group, in input order
    mixed = [random_path(rng, n, scale=0.3) for n in (4, 9, 4, 1, 9)]
    for s, x in zip(unstack(signatures(mixed, 3), 2), mixed):
        for a, b in zip(s.levels, signature(x, 3).levels):
            assert np.array_equal(a, b)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("depth", [0, 1, 3, 4, 6])
def test_rows_last_kernel_equals_row_major_fold(dim, depth):
    rng = np.random.default_rng(11)
    # 0 and 1 segments, 100, one below, at and above the chunk bound, and
    # three chunks; the long ones at the smaller batches
    most = max(32, 2 * dim**depth)
    lengths = (0, 1, 100, most - 1, most, most + 1, 2 * most + 1, 20_000)
    for batch in (1, 7, 275):
        for n_segments in [n for n in lengths if batch * n <= 275 * 300 or batch == 1]:
            paths = [random_path(rng, n_segments, dim=dim, scale=0.3) for _ in range(batch)]
            ref = sign_rows_fold([p.points for p in paths], depth)
            # the kernel's stacked input, in C and in Fortran order
            stacked = np.stack([p.points for p in paths])
            for got in (
                _sign_block(stacked, depth),
                _sign_block(np.asfortranarray(stacked), depth),
                signatures(paths, depth),
            ):
                assert len(got) == depth + 1
                for a, b in zip(got, ref):
                    assert a.shape == b.shape and np.array_equal(a, b), (batch, n_segments)


def test_kernel_chunking_and_working_set():
    # the fewest chunks of at most max(32, 2 * d**depth) segments, balanced
    for n_segments, d, depth in itertools.product(
        (0, 1, 2, 31, 32, 33, 100, 20_000, 200_000), (1, 2, 3), (0, 2, 4, 6)
    ):
        chunk, n_chunks = _chunking(n_segments, d, depth)
        assert n_chunks == max(1, math.ceil(n_segments / max(32, 2 * d**depth)))
        assert chunk == max(1, math.ceil(n_segments / n_chunks))
    assert _chunking(50, 3, 5) == (50, 1)
    # The fold holds one accumulator per (path, chunk) row and never forms
    # a segment exponential, so its peak allocation stays within a small
    # multiple of its input points and output signatures, and within the
    # guard's estimate.
    rng = np.random.default_rng(10)
    for n_paths, n_segments, dim, depth in (
        (1050, 100, 2, 4), (30, 100, 2, 4), (1, 20_000, 2, 6), (200, 50, 3, 5)
    ):
        paths = [random_path(rng, n_segments, dim=dim, scale=0.1) for _ in range(n_paths)]
        point_bytes = sum(p.points.nbytes for p in paths)
        tracemalloc.start()
        try:
            sig_bytes = sum(lev.nbytes for lev in signatures(paths, depth))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (point_bytes + sig_bytes), (n_paths, n_segments, peak)
        assert peak <= _signing_bytes(n_paths, n_segments, dim, depth), (n_paths, n_segments, peak)


def test_long_and_short_paths_fold_in_few_serial_steps(monkeypatch):
    # The speed-up without a clock: a 100-segment planar path at depth 4
    # folds 4 chunks of 25 segments, 25 Horner steps rather than 100, and
    # a 20 000-segment one reduces its 625 chunk products in one batched
    # product per level of a pairwise tree, 10 calls where a left fold of
    # the same chunks makes 624.
    assert _chunking(100, 2, 4) == (25, 4)
    calls = []

    def counted(a, b):
        calls.append(a)
        return mul_levels(a, b)

    monkeypatch.setattr(signature_module, "mul_levels", counted)
    track = random_path(np.random.default_rng(12), 20_000, scale=0.01)
    chunk, n_chunks = _chunking(20_000, 2, 4)
    assert (chunk, n_chunks) == (32, 625)
    signature(track, 4)
    assert len(calls) <= math.ceil(math.log2(n_chunks))


def test_signatures_size_guard_refuses_before_signing(monkeypatch):
    # 3 paths of 300 segments fold 10 chunks of 30 each, and depth 3 at
    # width 2 has D = 15.  Per path: 25 words of indices and views, 301
    # points and 300 increments of 2 words, 1 output and 10 accumulators
    # of 15, and per chunk 3 scaled increments of 2 words and the Horner
    # temporaries of degree 3, 8 + 2 * 4 words.  Once: three staging
    # buffers the size of the 3 * 10 * 30 * 2 increments, fewer than
    # np.getbufsize() elements.
    def unsigned(*args):
        raise AssertionError("signed past the guard")

    paths = [random_path(np.random.default_rng(3), 300, scale=0.1) for _ in range(3)]
    per_path = 25 + (301 + 300) * 2 + (1 + 10) * 15 + 10 * (3 * 2 + 8 + 2 * 4)
    need = 8 * (3 * per_path + 3 * (3 * 10 * 30 * 2))
    monkeypatch.setattr(signature_module, "_physical_memory", lambda: need - 1)
    with monkeypatch.context() as m:
        m.setattr(signature_module, "_sign_block", unsigned)
        with pytest.raises(ValueError, match=f"needs an estimated {need:,} bytes"):
            signatures(paths, 3)
    # the bound is the estimate itself
    monkeypatch.setattr(signature_module, "_physical_memory", lambda: need)
    assert signatures(paths, 3)[3].shape == (3, 8)


def test_signing_estimate_counts_the_input_sized_arrays(monkeypatch):
    # A long, shallow track: its points and its increments, not its
    # 7-word tensors, set the estimate.  200 000 segments fold 6250
    # chunks of 32, and depth 2 at width 2 has D = 7; its three staging
    # buffers take np.getbufsize() elements each.
    def unsigned(*args):
        raise AssertionError("signed past the guard")

    track = make_path(np.zeros((200_001, 2)))
    need = 8 * (
        25 + (200_001 + 200_000) * 2 + (1 + 6250) * 7 + 6250 * (2 * 2 + 4 + 2 * 2)
        + 3 * np.getbufsize()
    )
    assert need > 2 * track.points.nbytes
    monkeypatch.setattr(signature_module, "_physical_memory", lambda: need - 1)
    with monkeypatch.context() as m:
        m.setattr(signature_module, "_sign_block", unsigned)
        with pytest.raises(ValueError, match=f"needs an estimated {need:,} bytes"):
            signatures([track], 2)
    monkeypatch.setattr(signature_module, "_physical_memory", lambda: need)
    assert np.array_equal(signatures([track], 2)[2], np.zeros((1, 4)))


def test_size_guard_message_counts_stay_readable(monkeypatch):
    # exact below 10**18, an order of magnitude from there up; an estimate
    # past Python's 4300-digit int-to-str limit still gives the guard's message
    monkeypatch.setattr(signature_module, "_physical_memory", lambda: 10**18 - 1)
    with pytest.raises(ValueError, match=r"estimated about 10\^6022 bytes, more than the "
                       r"999,999,999,999,999,999 bytes of physical memory$"):
        signatures([make_path([[0.0, 0.0], [1.0, 1.0]])], 20000)
    monkeypatch.setattr(signature_module, "_physical_memory", lambda: 10**18)
    with pytest.raises(ValueError, match=r"more than the about 10\^18 bytes"):
        signatures([make_path([[0.0, 0.0], [1.0, 1.0]])], 20000)


def test_signatures_validation():
    with pytest.raises(ValueError):
        signatures([], 2)
    with pytest.raises(ValueError, match="dimension"):
        signatures([make_path([[0.0], [1.0]]), make_path([[0.0, 0.0], [1.0, 1.0]])], 2)
    with pytest.raises(ValueError):
        signatures([make_path([[0.0], [1.0]])], -1)


def test_non_finite_values_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            make_path([[0.0, 0.0], [bad, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            make_path([[0.0], [1.0]], times=[0.0, bad])
    text = (
        "series_id,t,x1\n"
        "a,0.0,0.0\n"
        "b,0.0,1.0\n"
        "b,1.0,inf\n"
        "a,nan,2.0\n"
    )
    with pytest.raises(CsvFormatError, match="line 4: non-finite"):
        read_paths_csv(io.StringIO(text))
