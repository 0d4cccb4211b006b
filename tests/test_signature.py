"""Signature map, path operations and CSV ingestion."""

import importlib
import io
import tracemalloc

import numpy as np
import pytest

from trackscore.signature import (
    CHUNK_SEGMENTS,
    CsvFormatError,
    PiecewiseLinearPath,
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


def test_write_read_roundtrip():
    rng = np.random.default_rng(7)
    series = {"p": random_path(rng, 3), "q": random_path(rng, 5)}
    buf = io.StringIO()
    write_paths_csv(series, buf)
    back = read_paths_csv(io.StringIO(buf.getvalue()))
    assert set(back) == {"p", "q"}
    np.testing.assert_array_equal(back["p"].points, series["p"].points)


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
    # 0 and 1 segments, odd lengths, and lengths spanning several chunks
    for n_segments in (0, 1, 2, 5, 7, CHUNK_SEGMENTS + 1, 3 * CHUNK_SEGMENTS + 17):
        paths = [random_path(rng, n_segments, scale=0.3) for _ in range(3)]
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
    for n_segments in (5, 100, 2 * CHUNK_SEGMENTS + 3):
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
    from trackscore.signature import _sign_block

    rng = np.random.default_rng(11)
    for batch in (1, 7, 275):
        for n_segments in (0, 1, CHUNK_SEGMENTS - 1, CHUNK_SEGMENTS, CHUNK_SEGMENTS + 1, 300):
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
    from trackscore.signature import _chunking, _signing_bytes

    for n_segments in (1, 2, 100, CHUNK_SEGMENTS, CHUNK_SEGMENTS + 1, 20_000, 200_000):
        chunk, n_chunks = _chunking(n_segments)
        assert chunk <= CHUNK_SEGMENTS and chunk * n_chunks >= n_segments
        assert chunk * (n_chunks - 1) < n_segments
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


def test_signatures_size_guard_refuses_before_signing(monkeypatch):
    # 3 paths of 300 segments fold 3 chunks of 128 each, and depth 3 at
    # width 2 has D = 15.  Per path: 25 words of indices and views, 301
    # points and 384 padded increments of 2 words, 1 output and 3
    # accumulators of 15, per chunk 3 scaled increments of 2 words and
    # the Horner temporaries of degree 3, 8 + 2 * 4 words, and for the
    # chunk fold 3 rows-first copies of 15, two running products of 15
    # and a top degree of 8.  Once: three staging buffers the size of the
    # 3 * 3 * 128 * 2 increments, fewer than np.getbufsize() elements.
    def unsigned(*args):
        raise AssertionError("signed past the guard")

    paths = [random_path(np.random.default_rng(3), 300, scale=0.1) for _ in range(3)]
    per_path = 25 + (301 + 384) * 2 + (1 + 3) * 15 + 3 * (3 * 2 + 8 + 2 * 4) + 3 * 15 + 2 * 15 + 8
    need = 8 * (3 * per_path + 3 * (3 * 3 * 128 * 2))
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
    # 7-word tensors, set the estimate.  200 000 segments fold 1563
    # chunks of 128, and depth 2 at width 2 has D = 7; its three staging
    # buffers take np.getbufsize() elements each.
    def unsigned(*args):
        raise AssertionError("signed past the guard")

    track = make_path(np.zeros((200_001, 2)))
    folded = 1563 * 7 + 2 * 7 + 4
    need = 8 * (
        25 + (200_001 + 128 * 1563) * 2 + (1 + 1563) * 7 + 1563 * (2 * 2 + 4 + 2 * 2) + folded
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
