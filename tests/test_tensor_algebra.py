"""Unit tests for the truncated tensor algebra."""

import numpy as np
import pytest

from trackscore.tensor_algebra import (
    DimensionMismatchError,
    NonInvertibleError,
    TruncatedTensor,
    antipode,
    dilate,
    drop_scalar,
    exp_of_vector,
    flatten,
    from_text,
    inner,
    inverse,
    inverse_levels,
    is_grouplike,
    is_unital,
    lmul_matrix,
    mul,
    norm,
    rmul_matrix,
    tensor_dim,
    to_text,
    unflatten,
    unit,
    zero,
)


def random_tensor(rng, width, depth, scale=1.0, scalar=None):
    levels = [scale * rng.standard_normal(width**m) for m in range(depth + 1)]
    if scalar is not None:
        levels[0][0] = scalar
    return TruncatedTensor(width, depth, tuple(levels))


def assert_close(s, t, rtol=1e-12):
    ref = max(norm(s), norm(t), 1.0)
    assert norm(s - t) <= rtol * ref


def test_unit_is_neutral():
    rng = np.random.default_rng(0)
    t = random_tensor(rng, 3, 3)
    e = unit(3, 3)
    assert_close(mul(e, t), t)
    assert_close(mul(t, e), t)


def test_mul_frozen_example():
    # product of two coordinate exponentials, d=2, depth 2
    s = exp_of_vector([1.0, 0.0], 2)
    t = exp_of_vector([0.0, 1.0], 2)
    p = mul(s, t)
    assert p.level(0)[0] == pytest.approx(1.0)
    np.testing.assert_allclose(p.level(1), [1.0, 1.0])
    np.testing.assert_allclose(p.level(2), [0.5, 1.0, 0.0, 0.5])


def test_mul_associative():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = random_tensor(rng, 2, 4)
        b = random_tensor(rng, 2, 4)
        c = random_tensor(rng, 2, 4)
        assert_close(mul(mul(a, b), c), mul(a, mul(b, c)), rtol=1e-12)


def test_mul_distributes_and_scales():
    rng = np.random.default_rng(2)
    a = random_tensor(rng, 3, 2)
    b = random_tensor(rng, 3, 2)
    c = random_tensor(rng, 3, 2)
    assert_close(mul(a, b + c), mul(a, b) + mul(a, c))
    assert_close(mul(2.5 * a, b), 2.5 * mul(a, b))


def test_dimension_mismatch_rejected():
    a = unit(2, 3)
    b = unit(3, 3)
    with pytest.raises(DimensionMismatchError):
        mul(a, b)
    with pytest.raises(DimensionMismatchError):
        a + unit(2, 2)


def test_inverse_two_sided():
    rng = np.random.default_rng(3)
    for _ in range(10):
        t = random_tensor(rng, 2, 4, scalar=rng.uniform(0.5, 2.0))
        ti = inverse(t)
        assert_close(mul(t, ti), unit(2, 4), rtol=1e-11)
        assert_close(mul(ti, t), unit(2, 4), rtol=1e-11)


def test_inverse_requires_nonzero_scalar():
    t = random_tensor(np.random.default_rng(4), 2, 3, scalar=0.0)
    with pytest.raises(NonInvertibleError):
        inverse(t)


def test_antipode_involution_and_antihom():
    rng = np.random.default_rng(5)
    a = random_tensor(rng, 3, 3)
    b = random_tensor(rng, 3, 3)
    assert_close(antipode(antipode(a)), a)
    assert_close(antipode(mul(a, b)), mul(antipode(b), antipode(a)))


@pytest.mark.parametrize("width,depth", [(1, 3), (2, 0), (2, 4), (3, 3)])
def test_inverse_levels_equals_inverse_row_by_row(width, depth):
    rng = np.random.default_rng(width * 10 + depth)
    levels = [rng.standard_normal((6, width**m)) for m in range(depth + 1)]
    levels[0] += 2.0  # keep every scalar part away from zero
    batch = inverse_levels(levels)
    for i in range(6):
        t = TruncatedTensor(width, depth, tuple(lev[i] for lev in levels))
        for got, want in zip(batch, inverse(t).levels):
            assert np.array_equal(got[i], want)
    levels[0][4] = 0.0
    with pytest.raises(NonInvertibleError):
        inverse_levels(levels)


def test_antipode_commutes_with_inverse():
    t = random_tensor(np.random.default_rng(6), 2, 4, scalar=1.3)
    assert_close(antipode(inverse(t)), inverse(antipode(t)), rtol=1e-11)


def test_antipode_on_exponential():
    v = np.array([0.3, -0.7, 0.2])
    assert_close(antipode(exp_of_vector(v, 4)), exp_of_vector(-v, 4))


def test_antipode_reverses_word_order():
    # alpha(e1 e2) = e2 e1 at degree 2, with sign (+1)
    d, M = 2, 2
    t = zero(d, M)
    lev = [lv.copy() for lv in t.levels]
    lev[2][0 * d + 1] = 1.0  # word (1,2)
    t = TruncatedTensor(d, M, tuple(lev))
    a = antipode(t)
    assert a.level(2)[1 * d + 0] == pytest.approx(1.0)
    assert a.level(2)[0 * d + 1] == pytest.approx(0.0)


def test_grouplike_detection():
    g = exp_of_vector([0.4, 0.9], 5)
    assert is_grouplike(g)
    assert is_grouplike(unit(2, 5))
    bad = g + drop_scalar(0.1 * unit(2, 5))
    lev = [lv.copy() for lv in bad.levels]
    lev[2][0] += 0.05
    assert not is_grouplike(TruncatedTensor(2, 5, tuple(lev)))


def test_dilation_is_graded():
    rng = np.random.default_rng(7)
    t = random_tensor(rng, 2, 3)
    s = dilate(2.0, t)
    for m in range(4):
        np.testing.assert_allclose(s.level(m), 2.0**m * t.level(m))
    # multiplicative in the scale and compatible with exp
    assert_close(dilate(3.0, dilate(0.5, t)), dilate(1.5, t))
    v = np.array([0.2, -0.4])
    assert_close(dilate(1.7, exp_of_vector(v, 4)), exp_of_vector(1.7 * v, 4))


def test_inner_and_norm_cover_all_levels():
    assert norm(exp_of_vector([1.0, 0.0], 2)) == pytest.approx(1.5)
    a = unit(2, 2)
    assert inner(a, a) == pytest.approx(1.0)


def test_loss_levels_antipode_invariant():
    from trackscore.scoring import loss_L

    t = random_tensor(np.random.default_rng(8), 3, 3)
    assert loss_L(antipode(t)) == pytest.approx(loss_L(t), rel=1e-14)
    assert loss_L(unit(3, 3)) == 0.0


def test_mul_matrix_transposes_match_inner_products():
    # the transposes are the adjoints of x -> g * x and x -> x * g
    rng = np.random.default_rng(9)
    for d, M in [(2, 4), (3, 3), (1, 5)]:
        g = random_tensor(rng, d, M)
        x = random_tensor(rng, d, M)
        w = random_tensor(rng, d, M)
        lhs = inner(mul(g, x), w)
        adj = unflatten(lmul_matrix(g).T @ flatten(w), d, M)
        assert lhs == pytest.approx(inner(x, adj), rel=1e-12)
        lhs = inner(mul(x, g), w)
        adj = unflatten(rmul_matrix(g).T @ flatten(w), d, M)
        assert lhs == pytest.approx(inner(x, adj), rel=1e-12)


def test_mul_matrices_agree_with_mul():
    rng = np.random.default_rng(10)
    for d, M in [(2, 3), (3, 2), (1, 4), (2, 0), (3, 0), (2, 5)]:
        g = random_tensor(rng, d, M)
        x = random_tensor(rng, d, M)
        np.testing.assert_allclose(
            lmul_matrix(g) @ flatten(x), flatten(mul(g, x)), atol=1e-12
        )
        np.testing.assert_allclose(
            rmul_matrix(g) @ flatten(x), flatten(mul(x, g)), atol=1e-12
        )


def test_flatten_roundtrip():
    t = random_tensor(np.random.default_rng(11), 3, 3)
    vec = flatten(t)
    assert vec.shape == (tensor_dim(3, 3),)
    assert_close(unflatten(vec, 3, 3), t, rtol=0.0)


def test_tensor_dim_formula():
    assert tensor_dim(2, 4) == 1 + 2 + 4 + 8 + 16
    assert tensor_dim(1, 5) == 6
    assert tensor_dim(3, 0) == 1


def test_unital_projection_helpers():
    t = random_tensor(np.random.default_rng(12), 2, 2, scalar=1.0)
    assert is_unital(t)
    assert drop_scalar(t).scalar == 0.0
    assert not is_unital(2.0 * t)


def test_text_roundtrip_and_errors():
    t = random_tensor(np.random.default_rng(13), 2, 3)
    back = from_text(to_text(t))
    assert back.width == 2 and back.depth == 3
    for m in range(4):
        np.testing.assert_array_equal(back.level(m), t.level(m))

    with pytest.raises(ValueError, match="line 1"):
        from_text("nonsense\n1.0\n")
    with pytest.raises(ValueError, match="line 3"):
        from_text("2,1\n1\n0.0 oops\n")


def test_truncated_tensor_validation():
    levels = (np.ones(1), np.array([2.0, 3.0]), np.zeros(4))
    t = TruncatedTensor(2, 2, levels)
    assert t.width == 2 and t.depth == 2
    with pytest.raises(ValueError, match="level 2"):
        TruncatedTensor(2, 2, levels[:2] + (np.zeros(3),))
    with pytest.raises(ValueError, match="expected 3 levels"):
        TruncatedTensor(2, 2, levels[:2])
    with pytest.raises(ValueError, match="width"):
        TruncatedTensor(0, 0, levels[:1])
    with pytest.raises(ValueError, match="depth"):
        TruncatedTensor(2, -1, ())


def test_operator_sugar():
    rng = np.random.default_rng(14)
    a = random_tensor(rng, 2, 2)
    b = random_tensor(rng, 2, 2)
    assert_close(a @ b, mul(a, b), rtol=0.0)
    assert_close(a - b, a + (-b), rtol=0.0)
    assert_close(0.5 * a, a * 0.5, rtol=0.0)
