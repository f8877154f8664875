"""Problem model, Lagrangian values, step-size feasibility, reference points."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from iapd import problem as problem_module
from iapd.linalg import LinearMap
from iapd.problem import (
    CERTIFIED_GAP_RTOL,
    ReferencePoint,
    SaddleProblem,
    StepParams,
    _reference_gap,
    _support_polish,
    compute_reference,
    default_step_params,
    validate_params,
)
from iapd.proxfuns import (
    L1Norm,
    LeastSquares,
    NonnegIndicator,
    ShiftedQuadratic,
    SmoothFunction,
    ZeroSmooth,
)
from iapd.solvers import iapd_step, init_iapd_state

from helpers import ZeroProx, primal_objective


def scalar_problem(f1=None, shift=0.0):
    return SaddleProblem(
        f1=f1 if f1 is not None else L1Norm(0.1),
        f2=ZeroSmooth(),
        g1=ShiftedQuadratic([shift]),
        g2=ZeroSmooth(),
        K=LinearMap(np.eye(1)),
    )


class TenLipschitz(SmoothFunction):
    lipschitz = 10.0

    def value(self, x):
        return 5.0 * float(x @ x)

    def grad(self, x):
        return 10.0 * np.asarray(x, dtype=np.float64)


def test_requires_strongly_convex_g1():
    with pytest.raises(ValueError):
        SaddleProblem(
            f1=L1Norm(0.1), f2=ZeroSmooth(), g1=ZeroProx(), g2=ZeroSmooth(),
            K=LinearMap(np.eye(2)),
        )


def test_shift_length_must_match_rows():
    with pytest.raises(ValueError):
        SaddleProblem(
            f1=L1Norm(0.1), f2=ZeroSmooth(), g1=ShiftedQuadratic([1.0, 2.0]),
            g2=ZeroSmooth(), K=LinearMap(np.eye(3)),
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_g1_shift_is_refused_before_any_iteration(bad):
    """Not reported later as a divergence of the solve."""
    with pytest.raises(ValueError, match="^g1 shift contains non-finite entries$"):
        SaddleProblem(
            f1=L1Norm(0.1), f2=ZeroSmooth(), g1=ShiftedQuadratic([1.0, bad]),
            g2=ZeroSmooth(), K=LinearMap(np.eye(2)),
        )


def test_dims_and_mu():
    p = SaddleProblem(
        f1=L1Norm(0.1), f2=ZeroSmooth(), g1=ShiftedQuadratic(np.zeros(3)),
        g2=ZeroSmooth(), K=LinearMap(np.zeros((3, 5))),
    )
    assert (p.primal_dim, p.dual_dim, p.mu_g) == (5, 3, 1.0)


def test_lagrangian_scalar_hand_value():
    # 0.1|x| + x y - 0.5 y^2 at x = y = 1 gives 0.1 + 1 - 0.5 = 0.6.
    p = scalar_problem()
    assert p.lagrangian(np.array([1.0]), np.array([1.0])) == pytest.approx(0.6)


def test_lagrangian_zero_like_parts_vanish():
    # With a centered quadratic dual term, L(x, 0) = f(x); ZeroProx-style
    # primal gives 0 for every x at y = 0.
    p = scalar_problem(f1=ZeroProx())
    for x in (-3.0, 0.0, 7.5):
        assert p.lagrangian(np.array([x]), np.array([0.0])) == 0.0


def test_lagrangian_infeasible_primal_dominates():
    p = SaddleProblem(
        f1=NonnegIndicator(), f2=ZeroSmooth(), g1=ShiftedQuadratic([0.0]),
        g2=ZeroSmooth(), K=LinearMap(np.eye(1)),
    )
    assert p.lagrangian(np.array([-1.0]), np.array([0.0])) == np.inf


def test_primal_objective_matches_sup_over_y():
    p = SaddleProblem(
        f1=L1Norm(0.3), f2=ZeroSmooth(), g1=ShiftedQuadratic([2.0, -1.0]),
        g2=ZeroSmooth(), K=LinearMap(np.array([[1.0, 0.5], [0.0, 2.0]])),
    )
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(2)
        direct = primal_objective(p)(x)
        # sup_y attained at y = Kx - shift
        y = p.K.apply(x) - p.g1.shift
        assert direct == pytest.approx(p.lagrangian(x, y), rel=1e-12, abs=1e-12)
        # any other y gives a smaller Lagrangian value
        assert p.lagrangian(x, y + rng.standard_normal(2)) <= direct + 1e-10


# -- step-size feasibility -------------------------------------------------


def test_validate_params_accepts_strict_choice():
    p = scalar_problem()
    knorm = p.K.norm()
    params = StepParams(alpha=0.98 / (2.0 * knorm), beta=2.0 / knorm, t1=5.0)
    assert validate_params(p, params) is None


def test_validate_params_rejects_coupling_violation():
    p = scalar_problem()
    knorm = p.K.norm()
    with pytest.raises(ValueError, match=r"need alpha\*beta\*\|\|K\|\|\^2 < .* \(got 4 vs 1\)"):
        validate_params(p, StepParams(alpha=2.0 / knorm, beta=2.0 / knorm))


def test_validate_params_rejects_smooth_violation():
    p = SaddleProblem(
        f1=L1Norm(0.1), f2=TenLipschitz(), g1=ShiftedQuadratic([0.0]),
        g2=ZeroSmooth(), K=LinearMap(np.eye(1)),
    )
    with pytest.raises(ValueError, match=r"need alpha < 1/L_f2 \(got 0\.2 vs 0\.1\)"):
        validate_params(p, StepParams(alpha=0.2, beta=0.01))
    p = SaddleProblem(
        f1=L1Norm(0.1), f2=ZeroSmooth(), g1=ShiftedQuadratic([0.0]),
        g2=TenLipschitz(), K=LinearMap(np.eye(1)),
    )
    with pytest.raises(ValueError, match=r"need beta < t1\^2/L_g2 \(got 1 vs 0\.1\)"):
        validate_params(p, StepParams(alpha=0.01, beta=1.0, t1=1.0))


def test_validate_params_rejects_nonpositive_and_bad_t1():
    p = scalar_problem()
    with pytest.raises(ValueError, match=r"^invalid step parameters: need alpha > 0 \(got -1\)$"):
        validate_params(p, StepParams(alpha=-1.0, beta=1.0))
    with pytest.raises(ValueError, match=r"^invalid step parameters: need beta > 0 \(got 0\)$"):
        validate_params(p, StepParams(alpha=0.1, beta=0.0))
    with pytest.raises(ValueError, match=r"^invalid step parameters: need t1 >= 1 \(got 0\.5\)$"):
        validate_params(p, StepParams(alpha=0.1, beta=0.1, t1=0.5))
    # every failed inequality is named
    with pytest.raises(ValueError, match=r"need alpha > 0 \(got -1\); need beta > 0 \(got 0\); "
                                         r"need t1 >= 1 \(got 0\.5\)$"):
        validate_params(p, StepParams(alpha=-1.0, beta=0.0, t1=0.5))


def test_validate_params_monotone_in_alpha():
    # Shrinking a feasible alpha never introduces a violation.
    p = scalar_problem()
    knorm = p.K.norm()
    base = StepParams(alpha=0.98 / (2.0 * knorm), beta=2.0 / knorm, t1=5.0)
    validate_params(p, base)
    for scale in (0.5, 0.1, 1e-3):
        validate_params(p, StepParams(base.alpha * scale, base.beta, base.t1))


def test_default_step_params_feasible_across_structures():
    rng = np.random.default_rng(4)
    dense = SaddleProblem(
        f1=L1Norm(0.1), f2=ZeroSmooth(), g1=ShiftedQuadratic(rng.standard_normal(6)),
        g2=ZeroSmooth(), K=LinearMap(rng.standard_normal((6, 9))),
    )
    validate_params(dense, default_step_params(dense))
    smooth = SaddleProblem(
        f1=L1Norm(0.1), f2=TenLipschitz(), g1=ShiftedQuadratic([0.0]),
        g2=ZeroSmooth(), K=LinearMap(np.eye(1)),
    )
    validate_params(smooth, default_step_params(smooth))
    decoupled = SaddleProblem(
        f1=L1Norm(0.1), f2=ZeroSmooth(), g1=ShiftedQuadratic([0.0]),
        g2=ZeroSmooth(), K=LinearMap(np.zeros((1, 4))),
    )
    validate_params(decoupled, default_step_params(decoupled))


# -- reference points ------------------------------------------------------


def test_compute_reference_scalar_nnls():
    # dual part 0.5 (y + 2)^2 has conjugate 0.5 z^2 - 2 z, so the primal
    # objective over x >= 0 is 0.5 x^2 - 2 x: x* = 2, y* = x* - 2 = 0.
    p = SaddleProblem(
        f1=NonnegIndicator(), f2=ZeroSmooth(), g1=ShiftedQuadratic([2.0]),
        g2=ZeroSmooth(), K=LinearMap(np.eye(1)),
    )
    ref = compute_reference(p, 20000, params=default_step_params(p), objective=primal_objective(p))
    assert ref.x_star[0] == pytest.approx(2.0, abs=1e-5)
    assert ref.y_star[0] == pytest.approx(0.0, abs=1e-5)
    assert ref.objective_value == pytest.approx(-2.0, abs=1e-9)
    assert ref.accuracy <= 1e-8


def test_compute_reference_decoupled_l1_gives_zero():
    p = SaddleProblem(
        f1=L1Norm(0.5), f2=ZeroSmooth(), g1=ShiftedQuadratic([0.0]),
        g2=ZeroSmooth(), K=LinearMap(np.zeros((1, 3))),
    )
    ref = compute_reference(p, 50, params=default_step_params(p), objective=primal_objective(p))
    assert np.array_equal(ref.x_star, np.zeros(3))


def test_compute_reference_agrees_with_independent_solver():
    from iapd.bench import generate_l1ls
    from iapd.proxfuns import LeastSquares
    from iapd.solvers import SolverOptions, solve_fista

    inst = generate_l1ls(30, 60, 0.1, seed=5)
    ref = compute_reference(inst.problem, 8000, params=default_step_params(inst.problem),
                            objective=inst.objective)
    f2 = LeastSquares(inst.problem.K, inst.b)
    x, _ = solve_fista(
        inst.problem.f1, f2, 1.0 / f2.lipschitz,
        SolverOptions(max_iters=20000), x0=np.zeros(60),
    )
    fista_val = inst.objective(x)
    assert ref.objective_value == pytest.approx(fista_val, rel=1e-8, abs=1e-10)


def test_reference_satisfies_saddle_inequalities_on_probes():
    from iapd.bench import generate_l1ls

    inst = generate_l1ls(25, 40, 0.1, seed=9)
    p = inst.problem
    ref = compute_reference(p, 6000, params=default_step_params(p), objective=inst.objective)
    mid = p.lagrangian(ref.x_star, ref.y_star)
    rng = np.random.default_rng(1)
    tol = 1e-6 * (1.0 + abs(mid))
    for _ in range(50):
        x = ref.x_star + 0.1 * rng.standard_normal(p.primal_dim)
        y = ref.y_star + 0.1 * rng.standard_normal(p.dual_dim)
        assert p.lagrangian(x, ref.y_star) >= mid - tol
        assert p.lagrangian(ref.x_star, y) <= mid + tol


def test_compute_reference_rejects_bad_inputs():
    p = scalar_problem()
    with pytest.raises(ValueError):
        compute_reference(p, 0, params=default_step_params(p), objective=primal_objective(p))
    with pytest.raises(ValueError):
        compute_reference(p, 10, params=StepParams(alpha=-1.0, beta=1.0),
                          objective=primal_objective(p))


def oracle_compute_reference(problem, effort, params, objective):
    """compute_reference as its own loop over iapd_step, before it ran through solve_iapd."""
    if effort < 1:
        raise ValueError("effort must be >= 1")
    validate_params(problem, params)

    checkpoint_at = max(1, (9 * effort) // 10)
    state = init_iapd_state(problem, params)
    check = None
    for _ in range(effort):
        state = iapd_step(problem, params, state, "option1")
        if state.k - 1 == checkpoint_at:
            check = (state.x.copy(), state.y.copy())
    if check is None:
        check = (state.x, state.y)

    gap = problem.lagrangian(state.x, check[1]) - problem.lagrangian(check[0], state.y)
    return ReferencePoint(state.x, state.y, float(objective(state.x)), abs(float(gap)))


@st.composite
def reference_cases(draw):
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.7)
    K = LinearMap(sp.csr_array(mat) if draw(st.booleans()) else mat)
    f1 = draw(st.sampled_from([L1Norm(0.3), NonnegIndicator(), ZeroProx()]))
    f2 = ZeroSmooth() if draw(st.booleans()) else LeastSquares(
        LinearMap(rng.standard_normal((3, n))), rng.standard_normal(3))
    g2 = ZeroSmooth() if draw(st.booleans()) else LeastSquares(
        LinearMap(rng.standard_normal((2, m))), rng.standard_normal(2))
    problem = SaddleProblem(f1=f1, f2=f2, g1=ShiftedQuadratic(rng.standard_normal(m)), g2=g2, K=K)
    params = default_step_params(problem, t1=draw(st.sampled_from([1.0, 1.5, 5.0])))

    def objective(x):
        return problem.f1.value(x) + 0.5 * float(x @ x)

    return problem, draw(st.integers(1, 60)), params, objective


def assert_same_reference(got, want):
    assert got.x_star.tobytes() == want.x_star.tobytes()
    assert got.y_star.tobytes() == want.y_star.tobytes()
    assert np.float64(got.objective_value).tobytes() == np.float64(want.objective_value).tobytes()
    assert np.float64(got.accuracy).tobytes() == np.float64(want.accuracy).tobytes()
    assert not got.certified


@settings(max_examples=100, deadline=None)
@given(reference_cases())
def test_compute_reference_matches_its_hand_loop(case):
    """An uncertified reference is the hand loop's, bit for bit.

    A certified one ends at a support polish the hand loop never takes; the
    certified-reference property below checks those draws instead.
    """
    problem, effort, params, objective = case
    got = compute_reference(problem, effort, params=params, objective=objective)
    if got.certified:
        return
    want = oracle_compute_reference(problem, effort, params=params, objective=objective)
    assert_same_reference(got, want)
    assert got.iterations == effort


@st.composite
def least_squares_cases(draw):
    """Small l1ls and nnls saddle forms: dense or CSR, nonnegative or signed K."""
    m, n = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    signed = draw(st.booleans())
    mat = rng.standard_normal((m, n)) if signed else rng.uniform(0.0, 1.0, (m, n))
    mat *= rng.random((m, n)) < draw(st.sampled_from([0.5, 1.0]))
    planted = rng.uniform(0.0, 5.0, n) * (rng.random(n) < 0.5)
    if signed:
        planted *= rng.choice([-1.0, 1.0], n)
    b = mat @ planted + draw(st.sampled_from([0.0, 0.1])) * rng.standard_normal(m)
    if draw(st.booleans()):
        f1 = L1Norm(draw(st.floats(0.01, 1.0)))
    else:
        f1 = NonnegIndicator()
    K = LinearMap(sp.csr_array(mat) if draw(st.booleans()) else mat)
    problem = SaddleProblem(f1=f1, f2=ZeroSmooth(), g1=ShiftedQuadratic(b), g2=ZeroSmooth(), K=K)
    params = default_step_params(problem, t1=draw(st.sampled_from([1.0, 5.0])))

    def objective(x):
        r = mat @ x - b
        return problem.f1.value(x) + 0.5 * float(r @ r)

    return problem, mat, b, draw(st.sampled_from([200, 1000, 3000])), params, objective


def lbfgs_l1ls(mat, b, lam):
    """min 0.5 ||A (p - q) - b||^2 + lam 1^T (p + q) over p, q >= 0, by L-BFGS-B."""
    from scipy.optimize import minimize

    n = mat.shape[1]

    def fun(pq):
        r = mat @ (pq[:n] - pq[n:]) - b
        g = mat.T @ r
        return 0.5 * float(r @ r) + lam * pq.sum(), np.concatenate([g + lam, lam - g])

    res = minimize(fun, np.zeros(2 * n), jac=True, method="L-BFGS-B", bounds=[(0, None)] * (2 * n),
                   options={"ftol": 1e-15, "gtol": 1e-12, "maxiter": 10_000})
    return res.x[:n] - res.x[n:]


@settings(max_examples=150, deadline=None)
@given(least_squares_cases())
def test_certified_reference_is_a_duality_gap_no_optimum_beats(case):
    """Recomputed in plain numpy: the gap P(x) - D(y_hat) of the Gap Safe dual point.

    P(x) = f1(x) + 0.5 ||Ax - b||^2 - 0.5 ||b||^2 is the saddle form's primal
    and D(y) = -0.5 ||y + b||^2 its dual on the dual-feasible set.
    """
    from scipy.optimize import nnls

    problem, mat, b, effort, params, objective = case
    ref = compute_reference(problem, effort, params=params, objective=objective)
    if not ref.certified:
        return
    x, r = ref.x_star, mat @ ref.x_star - b
    scale = 1.0 + float(np.abs(b) @ np.abs(b)) + float(np.abs(mat).sum() * np.abs(x).sum())
    assert np.allclose(ref.y_star, r, rtol=0.0, atol=1e-12 * scale)
    z = mat.T @ r
    if isinstance(problem.f1, L1Norm):
        lam = problem.f1.weight
        y_hat = r * min(1.0, lam / np.abs(z).max()) if np.abs(z).max() > 0 else r
        assert np.abs(mat.T @ y_hat).max() <= lam + 1e-12 * scale
        other = lbfgs_l1ls(mat, b, lam)
    else:
        assert (x >= 0).all()
        short = z < 0
        shift = np.max(-z[short] / mat.T.sum(axis=1)[short]) if short.any() else 0.0
        y_hat = r + shift
        assert (mat.T @ y_hat >= -1e-12 * scale).all()
        other = nnls(mat, b)[0]
    terms = [problem.f1.value(x), 0.5 * float(r @ r), -0.5 * float(b @ b),
             0.5 * float((y_hat + b) @ (y_hat + b))]
    rounding = 1e-14 * sum(map(abs, terms))
    assert ref.accuracy == pytest.approx(abs(sum(terms)), rel=0.0, abs=rounding)
    assert ref.objective_value == objective(x)
    assert 0 < ref.iterations <= effort
    assert objective(other) >= ref.objective_value - ref.accuracy - 1e-12 * scale


def signed_nnls():
    """An nnls saddle form whose every column of K sums below zero."""
    rng = np.random.default_rng(4)
    mat = rng.standard_normal((30, 12))
    mat -= mat.mean(axis=0) + 0.1
    b = mat @ rng.uniform(1.0, 5.0, 12) + 0.1 * rng.standard_normal(30)
    problem = SaddleProblem(f1=NonnegIndicator(), f2=ZeroSmooth(), g1=ShiftedQuadratic(b),
                            g2=ZeroSmooth(), K=LinearMap(mat))
    return problem, default_step_params(problem)


def test_signed_nnls_stays_uncertified_and_matches_the_hand_loop():
    """Every column of K sums below zero, so no shift along 1 makes K^T y >= 0.

    The polish finds the optimum on the full support, but rounding leaves
    some (K^T r)_j < 0 that only such a shift could lift: the reference is
    the plain iapd one.
    """
    problem, params = signed_nnls()
    got = compute_reference(problem, 3000, params, primal_objective(problem))
    assert_same_reference(got, oracle_compute_reference(problem, 3000, params,
                                                        primal_objective(problem)))
    assert got.iterations == 3000


def test_nesterov_branch_locks_in_under_strong_dual_steps():
    # With beta * mu_g > 1 + 1/t1 the strongly convex branch never binds,
    # so the scalar sequence follows the plain Nesterov recursion forever.
    from iapd.solvers import next_t

    t1 = 1.0
    a = 1.0 + 1.0 / t1 + 0.5
    t = t_plain = t1
    for _ in range(10_000):
        assert 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t)) <= math.sqrt(t * t + a * t)
        t = next_t(t, a)
        t_plain = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t_plain * t_plain))
        assert t == t_plain


# -- the per-solve gap ----------------------------------------------------------


def oracle_lagrangian(problem, x, y):
    """SaddleProblem.lagrangian as one expression, with its +inf/-inf precedence."""
    fx = problem.f1.value(x)
    if np.isinf(fx):
        return np.inf
    gy = problem.g1.value(y)
    if np.isinf(gy):
        return -np.inf
    return (
        fx
        + problem.f2.value(x)
        + float(problem.K.apply(x) @ np.asarray(y, dtype=np.float64))
        - gy
        - problem.g2.value(y)
    )


# Mostly ordinary entries; the rest make x infeasible under NonnegIndicator,
# f1 or g1 infinite, or a term NaN.
gap_entries = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]))


@st.composite
def saddle_and_points(draw):
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mat = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.5)
    K = LinearMap(sp.csr_array(mat) if draw(st.booleans()) else mat)
    f1 = draw(st.sampled_from([L1Norm(0.3), NonnegIndicator(), ZeroProx()]))
    f2 = ZeroSmooth() if draw(st.booleans()) else LeastSquares(
        LinearMap(rng.standard_normal((3, n))), rng.standard_normal(3))
    g2 = ZeroSmooth() if draw(st.booleans()) else LeastSquares(
        LinearMap(rng.standard_normal((2, m))), rng.standard_normal(2))
    problem = SaddleProblem(f1=f1, f2=f2, g1=ShiftedQuadratic(rng.standard_normal(m)), g2=g2, K=K)

    def point(size):
        if draw(st.booleans()):
            return rng.standard_normal(size)
        return np.array(draw(st.lists(gap_entries, min_size=size, max_size=size)))

    return problem, point(n), point(m), point(n), point(m)


@settings(max_examples=400, deadline=None)
@given(saddle_and_points())
def test_reference_gap_is_the_difference_of_two_lagrangians(case):
    problem, x_star, y_star, x, y = case
    with np.errstate(all="ignore"):
        gap_at = _reference_gap(problem, x_star, y_star)
        got = gap_at(x, y)
        want = oracle_lagrangian(problem, x, y_star) - oracle_lagrangian(problem, x_star, y)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()
        assert np.float64(gap_at(x, y)).tobytes() == np.float64(got).tobytes()
        for a, b in ((x, y_star), (x_star, y)):
            assert (np.float64(problem.lagrangian(a, b)).tobytes()
                    == np.float64(oracle_lagrangian(problem, a, b)).tobytes())


def test_reference_gap_takes_one_product_per_call(monkeypatch):
    problem = SaddleProblem(f1=NonnegIndicator(), f2=ZeroSmooth(), g1=ShiftedQuadratic(np.ones(4)),
                            g2=ZeroSmooth(), K=LinearMap(np.arange(12.0).reshape(4, 3)))
    gap_at = _reference_gap(problem, np.ones(3), np.zeros(4))
    calls = []
    original = LinearMap.apply
    monkeypatch.setattr(LinearMap, "apply", lambda self, v: calls.append(1) or original(self, v))
    for k in range(10):
        gap_at(np.full(3, float(k)), np.ones(4))
    assert len(calls) == 10
    # an infeasible x is +inf before its product is taken
    assert gap_at(np.array([-1.0, 0.0, 0.0]), np.ones(4)) == np.inf
    assert len(calls) == 10


def test_polish_gives_none_where_the_gram_matrix_is_singular(monkeypatch):
    """Two equal columns in the support make the normal equations singular."""
    problem = SaddleProblem(f1=L1Norm(0.1), f2=ZeroSmooth(), g1=ShiftedQuadratic(np.ones(2)),
                            g2=ZeroSmooth(), K=LinearMap(np.array([[1.0, 1.0], [2.0, 2.0]])))
    raised = []
    original = np.linalg.solve

    def solve(*args):
        try:
            return original(*args)
        except np.linalg.LinAlgError as err:
            raised.append(err)
            raise

    monkeypatch.setattr(np.linalg, "solve", solve)
    assert _support_polish(problem)(np.array([1.0, 1.0])) is None
    assert len(raised) == 1


def tenths_reference(problem, effort, params, objective):
    """The first certified polish at a tenth of ``effort`` or at its end, as a hand loop; or None.

    A fixed schedule that the sign-pattern schedule of ``compute_reference``
    must match, bit for bit, or beat.
    """
    polish = _support_polish(problem)
    tenth = max(1, effort // 10)
    state = init_iapd_state(problem, params)
    for done in range(1, effort + 1):
        state = iapd_step(problem, params, state, "option1")
        if done % tenth and done != effort:
            continue
        found = polish(state.x)
        if found is None:
            continue
        x_hat, r, gap = found
        value = float(objective(x_hat))
        if abs(gap) <= CERTIFIED_GAP_RTOL * max(1.0, abs(value)):
            return ReferencePoint(x_hat, r, value, abs(gap), certified=True, iterations=done)
    return None


@pytest.mark.parametrize("family, seed, iterations", [
    ("l1ls", 101, 910), ("l1ls", 7, 2060), ("nnls", 101, 30), ("nnls", 11, 90)])
def test_default_benches_get_a_certified_reference(family, seed, iterations):
    """The polish certifies as soon as the support settles, on the tenths' point bit for bit.

    The steps are the family's reference row, as ``run_benchmark``'s.
    """
    from iapd.bench import generate_l1ls, generate_nnls, reference_params

    if family == "l1ls":
        inst = generate_l1ls(200, 400, 0.1, seed)
    else:
        inst = generate_nnls(400, 200, 0.1, seed)
    p = inst.problem
    params = reference_params(family, p.K.norm())
    ref = compute_reference(p, 20000, params=params, objective=inst.objective)
    assert ref.certified and ref.iterations == iterations
    assert ref.accuracy <= 1e-9
    want = tenths_reference(p, 20000, params, inst.objective)
    assert want.iterations > iterations
    assert ref.x_star.tobytes() == want.x_star.tobytes()
    assert ref.y_star.tobytes() == want.y_star.tobytes()
    assert np.float64(ref.objective_value).tobytes() == np.float64(want.objective_value).tobytes()
    assert np.float64(ref.accuracy).tobytes() == np.float64(want.accuracy).tobytes()


@settings(max_examples=40, deadline=None)
@given(least_squares_cases())
def test_reference_certifies_no_later_than_at_the_tenths(case):
    problem, _, _, effort, params, objective = case
    want = tenths_reference(problem, effort, params, objective)
    got = compute_reference(problem, effort, params, objective)
    if want is not None:
        assert got.certified and got.iterations <= want.iterations


def test_a_failed_sign_pattern_is_not_polished_again(monkeypatch):
    """On the signed nnls form every polish fails."""
    problem, params = signed_nnls()
    patterns = []

    def counted(problem):
        polish = _support_polish(problem)
        return lambda x: patterns.append(np.sign(x)) or polish(x)

    monkeypatch.setattr(problem_module, "_support_polish", counted)
    ref = compute_reference(problem, 3000, params, primal_objective(problem))
    assert not ref.certified
    # The full support settles early and fails once; the tenths and the end would try it 10 times more.
    assert len(patterns) == 1 and patterns[0].all()


def test_the_stability_window_is_10_iterations_whatever_the_effort(monkeypatch):
    """At effort 2010 the rows fall on every iteration (a tenth of 201), but the
    sign pattern must still hold 10 iterations apart: the reference is effort
    2000's, at the same iteration, with at most the 11 tenth-and-end tries more."""
    from iapd.bench import generate_l1ls, reference_params

    inst = generate_l1ls(200, 400, 0.1, 101)
    p = inst.problem
    params = reference_params("l1ls", p.K.norm())
    tries = []

    def counted(problem):
        polish = _support_polish(problem)
        return lambda x: tries.append(1) or polish(x)

    monkeypatch.setattr(problem_module, "_support_polish", counted)
    refs = {}
    for effort in (2000, 2010):
        tries.clear()
        refs[effort] = compute_reference(p, effort, params=params, objective=inst.objective), len(tries)
    (want, want_tries), (got, got_tries) = refs[2000], refs[2010]
    assert got.certified and got.iterations == want.iterations
    assert got.x_star.tobytes() == want.x_star.tobytes()
    assert got.y_star.tobytes() == want.y_star.tobytes()
    assert np.float64(got.accuracy).tobytes() == np.float64(want.accuracy).tobytes()
    assert got_tries <= want_tries + 11


def test_large_l1ls_reference_at_effort_400_is_the_plain_iapd_one():
    """Rows fall every 10 iterations, but the sign pattern never holds across two
    rows, so the polish is tried only at the 10 tenths. Each try returns at its
    ``support.size <= K.rows`` test, since the support has more than 1000
    columns, before any dense work, so the reference is the plain iapd one. The
    steps are the l1ls reference row, as ``run_benchmark``'s."""
    from iapd.bench import generate_l1ls, reference_params

    inst = generate_l1ls(1000, 2000, 0.1, 101)
    p = inst.problem
    params = reference_params("l1ls", p.K.norm())
    got = compute_reference(p, 400, params=params, objective=inst.objective)
    assert_same_reference(got, oracle_compute_reference(p, 400, params, inst.objective))
