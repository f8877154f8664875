"""Proximal and smooth building-block tests with optimality-condition oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iapd.linalg import LinearMap
from iapd.proxfuns import (
    L1Norm,
    LeastSquares,
    NonnegIndicator,
    ShiftedQuadratic,
    ZeroSmooth,
)

from helpers import ZeroProx, quadratic_conjugate

RNG = np.random.default_rng(2024)


def random_pair(dim=8):
    step = float(10.0 ** RNG.uniform(-3, 2))
    z = RNG.standard_normal(dim) * float(10.0 ** RNG.uniform(-1, 1))
    return step, z


# -- closed forms ----------------------------------------------------------


def test_l1_value_and_prox_closed_form():
    f = L1Norm(0.5)
    assert f.value(np.array([1.0, -2.0, 0.0])) == 1.5
    p = f.prox(2.0, np.array([3.0, -0.5, 1.0]))
    assert np.allclose(p, [2.0, 0.0, 0.0])


def test_l1_zero_weight_prox_is_identity():
    z = np.array([1.0, -4.0])
    assert np.array_equal(L1Norm(0.0).prox(1.0, z), z)


def test_l1_negative_weight_rejected():
    for weight in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            L1Norm(weight)


def test_nonneg_value_and_projection():
    f = NonnegIndicator()
    assert f.value(np.array([0.0, 2.0])) == 0.0
    assert f.value(np.array([-1e-9, 2.0])) == np.inf
    assert np.array_equal(f.prox(3.0, np.array([-1.0, 2.0])), [0.0, 2.0])


def test_shifted_quadratic_closed_forms():
    b = np.array([1.0, -2.0])
    g = ShiftedQuadratic(b)
    assert g.strong_convexity == 1.0
    assert g.value(np.array([0.0, 0.0])) == 2.5
    # prox: minimize 0.5||y+b||^2 + ||y-z||^2/(2s) -> y = (z - s b)/(1+s)
    z = np.array([2.0, 4.0])
    assert np.allclose(g.prox(1.0, z), (z - b) / 2.0)
    # conjugate attained at y = z - b
    y = z - b
    assert quadratic_conjugate(g, z) == pytest.approx(float(z @ y) - g.value(y))


def test_zero_prox_identity():
    z = np.array([1.0, 2.0])
    p = ZeroProx().prox(0.5, z)
    assert np.array_equal(p, z)
    assert p is not z


def test_prox_rejects_nonpositive_step():
    for f in (L1Norm(1.0), NonnegIndicator(), ShiftedQuadratic([0.0]), ZeroProx()):
        with pytest.raises(ValueError):
            f.prox(0.0, np.zeros(1))
        with pytest.raises(ValueError):
            f.prox(-1.0, np.zeros(1))


# -- optimality-condition oracle: (z - p)/s must lie in the subdifferential


def check_subgradient(kind, step, z, tol=1e-8):
    p = kind.prox(step, z)
    g = (z - p) / step
    if isinstance(kind, L1Norm):
        w = kind.weight
        for pi, gi in zip(p, g):
            if pi > 0:
                assert abs(gi - w) <= tol
            elif pi < 0:
                assert abs(gi + w) <= tol
            else:
                assert abs(gi) <= w + tol
    elif isinstance(kind, NonnegIndicator):
        assert np.min(p) >= 0.0
        for pi, gi in zip(p, g):
            if pi > 0:
                assert abs(gi) <= tol
            else:
                assert gi <= tol  # normal cone at 0 is (-inf, 0]
    elif isinstance(kind, ShiftedQuadratic):
        assert np.all(np.abs(g - (p + kind.shift)) <= tol * (1.0 + np.abs(g)))
    elif isinstance(kind, ZeroProx):
        assert np.all(np.abs(g) <= tol)
    else:
        raise AssertionError(f"no oracle for {type(kind).__name__}")


@pytest.mark.parametrize(
    "kind",
    [L1Norm(0.7), NonnegIndicator(), ShiftedQuadratic(np.linspace(-2, 2, 8)), ZeroProx()],
    ids=["l1", "nonneg", "shifted-quadratic", "zero"],
)
def test_subgradient_inclusion_oracle(kind):
    for _ in range(1000):
        step, z = random_pair()
        check_subgradient(kind, step, z)


def test_soft_threshold_matches_grid_bruteforce():
    f = L1Norm(0.8)
    grid = np.arange(-20.0, 20.0, 1e-4)
    for step in (0.3, 1.0, 4.0):
        for z in (-6.3, -0.2, 0.0, 0.5, 9.9):
            vals = f.weight * np.abs(grid) + (grid - z) ** 2 / (2.0 * step)
            brute = grid[int(np.argmin(vals))]
            closed = float(f.prox(step, np.array([z]))[0])
            assert abs(closed - brute) <= 1e-4


@pytest.mark.parametrize(
    "kind",
    [L1Norm(0.7), NonnegIndicator(), ShiftedQuadratic(np.linspace(-2, 2, 8)), ZeroProx()],
    ids=["l1", "nonneg", "shifted-quadratic", "zero"],
)
def test_prox_firm_nonexpansiveness(kind):
    for _ in range(200):
        step, z1 = random_pair()
        z2 = z1 + RNG.standard_normal(z1.size)
        d = kind.prox(step, z1) - kind.prox(step, z2)
        inner = float(d @ (z1 - z2))
        assert float(d @ d) <= inner + 1e-10


def test_shifted_quadratic_strong_convexity_inequality():
    b = np.array([1.0, -1.0, 0.5])
    g = ShiftedQuadratic(b)
    for _ in range(100):
        x = RNG.standard_normal(3)
        y = RNG.standard_normal(3)
        lhs = g.value(y)
        # The gradient of 0.5 ||x + b||^2 is x + b.
        rhs = g.value(x) + float((x + b) @ (y - x)) + 0.5 * float((y - x) @ (y - x))
        assert lhs >= rhs - 1e-10


# -- smooth parts ----------------------------------------------------------


def test_zero_smooth():
    f = ZeroSmooth()
    assert f.lipschitz == 0.0
    assert f.value(np.ones(4)) == 0.0
    assert np.array_equal(f.grad(np.ones(4)), np.zeros(4))


def test_least_squares_value_and_grad():
    A = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, -1.0]])
    b = np.array([1.0, -1.0, 0.5])
    f = LeastSquares(LinearMap(A), b)
    x = np.array([0.5, -2.0])
    r = A @ x - b
    assert f.value(x) == pytest.approx(0.5 * float(r @ r))
    assert np.allclose(f.grad(x), A.T @ r)
    sigma = float(np.linalg.svd(A, compute_uv=False)[0])
    assert f.lipschitz >= sigma**2
    assert f.lipschitz == pytest.approx(sigma**2, rel=3e-3)


def test_least_squares_finite_difference_gradient():
    rng = np.random.default_rng(31)
    A = rng.standard_normal((6, 4))
    b = rng.standard_normal(6)
    f = LeastSquares(LinearMap(A), b)
    for _ in range(20):
        x = rng.standard_normal(4)
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        g = f.grad(x)
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (f.value(x + e) - f.value(x - e)) / (2.0 * h)
            assert abs(fd - g[i]) <= 1e-5 * (1.0 + abs(g[i]))


def test_least_squares_dimension_check():
    with pytest.raises(ValueError):
        LeastSquares(LinearMap(np.eye(3)), np.zeros(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_least_squares_refuses_non_finite_data(bad):
    with pytest.raises(ValueError, match="^least-squares data contains non-finite entries$"):
        LeastSquares(LinearMap(np.eye(3)), np.array([0.0, bad, 1.0]))


# -- in-place kernels against the textbook forms -----------------------------

# The two prox maps below are the plain one-temporary-per-operation forms the
# library's single-buffer kernels replace; the kernels must match them byte for
# byte, NaN payloads and signed zeros included.


def oracle_l1_prox(weight, step, z):
    z = np.asarray(z, dtype=np.float64)
    return np.sign(z) * np.maximum(np.abs(z) - step * weight, 0.0)


def oracle_shifted_quadratic_prox(shift, step, z):
    z = np.asarray(z, dtype=np.float64)
    return (z - step * shift) / (1.0 + step)


NEG_NAN = float(np.copysign(np.nan, -1.0))
SPECIALS = [0.0, -0.0, np.nan, NEG_NAN, np.inf, -np.inf, 5e-324, -5e-324,
            2.2250738585072014e-308, -1e-310, 1.0, -1.0]
entries = st.one_of(st.sampled_from(SPECIALS), st.floats(width=64))
steps = st.one_of(st.sampled_from([5e-324, 1e-300, 1.0, 1e300]),
                  st.floats(min_value=5e-324, max_value=1e308))


def same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=400, deadline=None)
@given(data=st.data(), step=steps, weight=st.floats(min_value=0.0, max_value=1e300))
def test_l1_prox_kernel_matches_textbook_form(data, step, weight):
    z = np.array(data.draw(st.lists(entries, min_size=1, max_size=40)))
    before = z.tobytes()
    with np.errstate(all="ignore"):
        got = L1Norm(weight).prox(step, z)
        want = oracle_l1_prox(weight, step, z)
    assert same_bytes(got, want)
    assert z.tobytes() == before
    assert not np.shares_memory(got, z)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), step=steps)
def test_shifted_quadratic_prox_kernel_matches_textbook_form(data, step):
    n = data.draw(st.integers(1, 40))
    z = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)))
    # a scalar shift broadcasts against z, as in the textbook form
    shift = np.array(data.draw(st.one_of(entries, st.lists(entries, min_size=n, max_size=n))))
    g = ShiftedQuadratic(shift)
    before, shift_before = z.tobytes(), g.shift.tobytes()
    with np.errstate(all="ignore"):
        got = g.prox(step, z)
        want = oracle_shifted_quadratic_prox(shift, step, z)
    assert same_bytes(got, want)
    assert z.tobytes() == before and g.shift.tobytes() == shift_before
    assert not np.shares_memory(got, z) and not np.shares_memory(got, g.shift)


def test_l1_prox_of_negative_zero_is_positive_zero():
    # np.sign(-0.0) is +0.0, so z = -0.0 maps to +0.0 (copysign would give -0.0),
    # while a thresholded negative entry maps to -1 * 0.0 = -0.0
    got = L1Norm(0.5).prox(1.0, np.array([-0.0, 0.0, -0.25]))
    assert got.tobytes() == np.array([0.0, 0.0, -0.0]).tobytes()


# -- value() against the plain forms -------------------------------------------------

# The forms the library's value() methods replaced: the same reductions, called
# through numpy's module-level wrappers.


def oracle_l1_value(weight, x):
    return weight * float(np.sum(np.abs(x)))


def oracle_nonneg_value(x):
    if np.min(x) < 0:
        return np.inf
    return 0.0


def float_bytes(v):
    return type(v), np.float64(v).tobytes()


values_input = st.lists(entries, min_size=1, max_size=40).flatmap(
    lambda xs: st.sampled_from([xs, np.array(xs), np.array(xs)[::-1]]))


@settings(max_examples=400, deadline=None)
@given(x=values_input, weight=st.one_of(st.sampled_from([0.0, 1.0, 1e300]),
                                        st.floats(min_value=0.0, allow_infinity=False)))
def test_value_kernels_match_their_plain_forms(x, weight):
    with np.errstate(all="ignore"):
        assert float_bytes(L1Norm(weight).value(x)) == float_bytes(oracle_l1_value(weight, x))
        assert float_bytes(NonnegIndicator().value(x)) == float_bytes(oracle_nonneg_value(x))
