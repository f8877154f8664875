"""Property tests of ``iapd_step`` against a reference copy of the textbook step.

``reference_step`` is the straightforward form of the update, one fresh
array per operation. The library's step reuses buffers and skips the
gradients of vanished smooth parts; these tests hold it to the reference
bit for bit, on random instances and random states, for both options,
dense and CSR maps (and a map that returns signed zeros), and vanished or
least-squares smooth parts.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from iapd.linalg import LinearMap
from iapd.problem import SaddleProblem, StepParams
from iapd.proxfuns import L1Norm, LeastSquares, NonnegIndicator, ShiftedQuadratic, ZeroSmooth
from iapd.solvers import DivergenceError, IapdState, iapd_step, next_t

from helpers import ZeroProx

STATE_ARRAYS = ("x", "x_prev", "y", "y_prev", "u", "v", "v_prev")


def reference_step(
    problem: SaddleProblem,
    params: StepParams,
    state: IapdState,
    option: str = "option1",
) -> IapdState:
    """One accelerated primal-dual iteration; returns the advanced state."""
    alpha, beta = params.alpha, params.beta
    t, t_next = state.t, state.t_next
    ratio = (t - 1.0) / t_next

    xbar = state.x + ratio * (state.x - state.x_prev)
    ybar = state.y + ratio * (state.y - state.y_prev)

    v_extra = state.v + (t / t_next) * (state.v - state.v_prev)
    w = problem.f2.grad(xbar) + problem.K.apply_adjoint(v_extra)

    if option == "option1":
        x_next = problem.f1.prox(alpha, xbar - alpha * w)
        u_next = x_next + (t_next - 1.0) * (x_next - state.x)
    elif option == "option2":
        u_next = problem.f1.prox(alpha * t_next, state.u - alpha * t_next * w)
        x_next = ((t_next - 1.0) * state.x + u_next) / t_next
    else:
        raise ValueError(f"unknown option {option!r}")

    dual_step = beta / t_next
    v_next = problem.g1.prox(dual_step, state.v - dual_step * (problem.g2.grad(ybar) - problem.K.apply(u_next)))
    y_next = ((t_next - 1.0) * state.y + v_next) / t_next

    if not (np.all(np.isfinite(x_next)) and np.all(np.isfinite(y_next)) and np.all(np.isfinite(v_next))):
        raise DivergenceError(f"non-finite iterate at iteration {state.k + 1}")

    a = problem.mu_g * beta
    return IapdState(
        x=x_next,
        x_prev=state.x,
        y=y_next,
        y_prev=state.y,
        u=u_next,
        v=v_next,
        v_prev=state.v,
        t=t_next,
        t_next=next_t(t_next, a),
        k=state.k + 1,
    )


def bits(a: np.ndarray) -> bytes:
    """The exact bytes of a float64 vector: tells -0.0 from +0.0, unlike ==."""
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def assert_same_state(got: IapdState, want: IapdState) -> None:
    for name in STATE_ARRAYS:
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name
    assert (got.t, got.t_next, got.k) == (want.t, want.t_next, want.k)


def snapshot(state: IapdState) -> dict:
    return {name: bits(getattr(state, name)) for name in STATE_ARRAYS}


# -- strategies ------------------------------------------------------------

# Special entries mixed into the random vectors, so signed-zero slips show.
SPECIAL = np.array([0.0, -0.0, 1.0, -1.0])


class Entries:
    """Gaussian vectors with a share of entries replaced by 0.0, -0.0 or +-1."""

    def __init__(self, seed, share):
        self.rng = np.random.default_rng(seed)
        self.share = share

    def __call__(self, n):
        v = self.rng.standard_normal(n)
        pick = self.rng.random(n) < self.share
        v[pick] = self.rng.choice(SPECIAL, size=int(pick.sum()))
        return v


class SignedZeroMap(LinearMap):
    """Dense map whose products return -0.0 for exact zeros, as some BLAS builds do.

    -(A (-x)) equals A x bit for bit apart from the sign of exact zeros,
    which OpenBLAS and scipy always return as +0.0.
    """

    def apply(self, x):
        return -super().apply(-np.asarray(x, dtype=np.float64))

    def apply_adjoint(self, y):
        return -super().apply_adjoint(-np.asarray(y, dtype=np.float64))


MAP_KINDS = {
    "dense": LinearMap,
    "csr": lambda mat: LinearMap(sp.csr_array(mat)),
    "signed-zero": SignedZeroMap,
}
map_kinds = st.sampled_from(sorted(MAP_KINDS))


def linear_map(vector, rows, cols, kind):
    return MAP_KINDS[kind](vector(rows * cols).reshape(rows, cols))


def smooth_part(draw, vector, dim):
    """ZeroSmooth or a least-squares term."""
    if not draw(st.booleans()):
        return ZeroSmooth()
    rows = draw(st.integers(1, 4))
    return LeastSquares(linear_map(vector, rows, dim, draw(map_kinds)), vector(rows))


@st.composite
def cases(draw):
    """A random problem, step parameters, state and option."""
    vector = Entries(draw(st.integers(0, 2**32 - 1)), draw(st.sampled_from([0.1, 0.5, 0.9])))
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 6))
    K = linear_map(vector, m, n, draw(map_kinds))
    f1 = draw(st.sampled_from([L1Norm(0.3), NonnegIndicator(), ZeroProx(), ShiftedQuadratic(vector(n))]))
    problem = SaddleProblem(f1=f1, f2=smooth_part(draw, vector, n), g1=ShiftedQuadratic(vector(m)),
                            g2=smooth_part(draw, vector, m), K=K)

    positive = st.floats(min_value=1e-3, max_value=2.0)
    params = StepParams(alpha=draw(positive), beta=draw(positive), t1=1.0)
    t = draw(st.floats(min_value=1.0, max_value=50.0))
    state = IapdState(
        x=vector(n), x_prev=vector(n),
        y=vector(m), y_prev=vector(m),
        u=vector(n),
        v=vector(m), v_prev=vector(m),
        t=t, t_next=next_t(t, problem.mu_g * params.beta),
        k=draw(st.integers(1, 10_000)),
    )
    option = draw(st.sampled_from(["option1", "option2"]))
    return problem, params, state, option


# -- properties ------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(cases())
def test_step_matches_reference_bit_for_bit(case):
    problem, params, state, option = case
    before = snapshot(state)
    got = iapd_step(problem, params, state, option)
    assert snapshot(state) == before, "iapd_step wrote to its input state"
    assert_same_state(got, reference_step(problem, params, state, option))


@settings(max_examples=200, deadline=None)
@given(cases(), st.sampled_from(["x", "y", "v"]), st.sampled_from([math.nan, math.inf, -math.inf]),
       st.integers(0, 4))
def test_nonfinite_state_goes_non_finite_where_reference_raises(case, field, bad, at):
    """The step returns a non-finite x or y exactly when the reference raises,
    and otherwise the reference state bit for bit."""
    problem, params, state, option = case
    target = getattr(state, field)
    target[at % target.size] = bad
    before = snapshot(state)

    with np.errstate(all="ignore"):
        try:
            want = reference_step(problem, params, state, option)
        except DivergenceError as err:
            want = err
        got = iapd_step(problem, params, state, option)

    assert snapshot(state) == before, "iapd_step wrote to its input state"
    assert got.k == state.k + 1
    if isinstance(want, DivergenceError):
        assert str(want) == f"non-finite iterate at iteration {got.k}"
        assert not (np.isfinite(got.x).all() and np.isfinite(got.y).all())
    else:
        assert_same_state(got, want)


@pytest.mark.parametrize("option", ["option1", "option2"])
@pytest.mark.parametrize("g2_vanishes", [True, False])
def test_signed_zeros_match_reference(option, g2_vanishes):
    """-0.0 iterates and a map returning -0.0: the sign of every zero matches."""
    rng = np.random.default_rng(3)
    K = SignedZeroMap(rng.standard_normal((3, 4)))
    g2 = ZeroSmooth() if g2_vanishes else LeastSquares(SignedZeroMap(rng.standard_normal((2, 3))), np.zeros(2))
    # ZeroProx passes the sign of a zero through; the projection and soft
    # thresholding would both turn -0.0 into +0.0 and hide a slip.
    problem = SaddleProblem(f1=ZeroProx(), f2=ZeroSmooth(), g1=ShiftedQuadratic(np.zeros(3)),
                            g2=g2, K=K)
    params = StepParams(alpha=0.3, beta=0.7)
    neg = np.full(4, -0.0)
    state = IapdState(x=neg.copy(), x_prev=np.zeros(4), y=np.full(3, -0.0), y_prev=np.zeros(3),
                      u=neg.copy(), v=np.zeros(3), v_prev=np.full(3, -0.0), t=1.0, t_next=1.5)
    assert_same_state(iapd_step(problem, params, state, option),
                      reference_step(problem, params, state, option))


def test_long_run_matches_reference():
    """200 chained steps from the initial state stay bit-identical, both options."""
    rng = np.random.default_rng(5)
    K = LinearMap(rng.standard_normal((12, 20)))
    f2 = LeastSquares(LinearMap(rng.standard_normal((6, 20))), rng.standard_normal(6))
    problem = SaddleProblem(f1=L1Norm(0.1), f2=f2, g1=ShiftedQuadratic(rng.standard_normal(12)),
                            g2=ZeroSmooth(), K=K)
    params = StepParams(alpha=0.5 / (f2.lipschitz + K.norm()), beta=0.5 / K.norm(), t1=2.0)
    for option in ("option1", "option2"):
        zeros_n, zeros_m = np.zeros(20), np.zeros(12)
        start = IapdState(x=zeros_n, x_prev=zeros_n.copy(), y=zeros_m, y_prev=zeros_m.copy(),
                          u=zeros_n.copy(), v=zeros_m.copy(), v_prev=zeros_m.copy(),
                          t=2.0, t_next=next_t(2.0, problem.mu_g * params.beta))
        got = want = start
        for _ in range(200):
            got = iapd_step(problem, params, got, option)
            want = reference_step(problem, params, want, option)
            assert_same_state(got, want)

