"""Energy evaluation, certificate checks, and slope fitting."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iapd.bench import ExperimentConfig, generate_l1ls, read_csv, run_benchmark
from iapd.diagnostics import (
    EnergyReport,
    InsufficientDataError,
    _reference_inflation,
    certify,
    energy_at,
    slope,
)
from iapd.linalg import LinearMap
from iapd.problem import ReferencePoint, StepParams, compute_reference, default_step_params
from iapd.solvers import iapd_step, init_iapd_state, next_t

from helpers import start_at
from test_problem import oracle_lagrangian, saddle_and_points


def small_setup(seed=17, m=20, n=30):
    inst = generate_l1ls(m, n, 0.1, seed=seed)
    knorm = inst.problem.K.norm()
    params = StepParams(alpha=0.98 / (2.0 * knorm), beta=2.0 / knorm, t1=5.0)
    return inst, params


def fake_ref(x, y):
    return ReferencePoint(np.asarray(x, dtype=np.float64),
                          np.asarray(y, dtype=np.float64), 0.0, 0.0)


def energy_initial_closed_form(problem, params, state, x, y):
    """Oracle: the initial energy in its reduced three-term form (valid at k = 1 only)."""
    if state.k != 1:
        raise ValueError("closed form is only valid at the initial state")
    gap = problem.lagrangian(state.x, y) - problem.lagrangian(x, state.y)
    dx = state.x - x
    dy = state.y - y
    return (
        params.t1**2 * gap
        + float(dx @ dx) / (2.0 * params.alpha)
        + state.t_next**2 * float(dy @ dy) / (2.0 * params.beta)
    )


def energy_trace(problem, params, states, ref):
    """Energy reports for a list of states; the first one's energy is E_1."""
    evaluate = energy_at(problem, params, ref)
    return [evaluate(st) for st in states]


def certify_run(problem, params, reports, **kw):
    """certify() with the run's constants, anchored at the first report's energy."""
    return certify(reports, reports[0].energy, params.t1, problem.mu_g, params.beta, **kw)


def test_initial_energy_matches_closed_form():
    inst, params = small_setup()
    rng = np.random.default_rng(8)
    state = start_at(inst.problem, params, rng.standard_normal(30), rng.standard_normal(20))
    for _ in range(10):
        x = rng.standard_normal(30)
        y = rng.standard_normal(20)
        rep = energy_at(inst.problem, params, fake_ref(x, y))(state)
        closed = energy_initial_closed_form(inst.problem, params, state, x, y)
        assert rep.energy == pytest.approx(closed, rel=1e-12, abs=1e-12)
        assert rep.i4 == 0.0  # v_1 = v_0 makes the cross term vanish


def test_initial_energy_at_own_iterate_is_zero():
    inst, params = small_setup()
    state = init_iapd_state(inst.problem, params)
    rep = energy_at(inst.problem, params, fake_ref(state.x, state.y))(state)
    assert rep.energy == 0.0


def test_closed_form_rejects_later_states():
    inst, params = small_setup()
    state = iapd_step(inst.problem, params, init_iapd_state(inst.problem, params))
    with pytest.raises(ValueError):
        energy_initial_closed_form(inst.problem, params, state,
                                   np.zeros(30), np.zeros(20))


def run_reports(iters=300, seed=17):
    inst, params = small_setup(seed=seed)
    ref = compute_reference(inst.problem, 8000, params=params,
                            objective=inst.objective)
    states = [init_iapd_state(inst.problem, params)]
    for _ in range(iters):
        states.append(iapd_step(inst.problem, params, states[-1]))
    reports = energy_trace(inst.problem, params, states, ref)
    return inst, params, ref, reports


def test_energy_monotone_on_small_instance():
    inst, params, ref, reports = run_reports()
    e1 = reports[0].energy
    tol = 1e-8 * (1.0 + abs(e1)) + 10.0 * ref.accuracy
    energies = [r.energy for r in reports]
    for prev, cur in zip(energies, energies[1:]):
        assert cur <= prev + tol


def test_certificates_hold_on_small_instance():
    inst, params, ref, reports = run_reports()
    inflation = 10.0 * ref.accuracy / max(1.0, abs(ref.objective_value))
    summary = certify_run(inst.problem, params, reports, inflation=inflation)
    assert summary.ok
    assert summary.rows == len(reports)


def test_certify_flags_corrupted_t_sequence():
    inst, params, ref, reports = run_reports(iters=100)
    bad = [dataclasses.replace(r, t_k=0.05 * r.k) for r in reports]
    summary = certify_run(inst.problem, params, bad, inflation=1.0)
    assert summary.t_lower_violations > 0
    assert not summary.ok


def test_certify_flags_inflated_gap():
    inst, params, ref, reports = run_reports(iters=100)
    e1 = reports[0].energy
    bad = [dataclasses.replace(r, gap_ref=e1 / r.t_k**2 * 10.0) for r in reports[1:]]
    summary = certify(bad, e1, params.t1, inst.problem.mu_g, params.beta)
    assert summary.gap_violations == len(bad)
    assert summary.first_k["gap"] == bad[0].k


def test_certify_rejects_empty():
    with pytest.raises(ValueError):
        certify([], 1.0, 1.0, 1.0, 1.0)


@pytest.mark.parametrize("constant, value", [
    ("e1", math.nan), ("e1", math.inf), ("t1", math.inf), ("mu_g", math.nan),
    ("beta", math.inf), ("inflation", math.nan), ("tol", math.nan), ("tol", math.inf),
    ("tol", -1e-6),
])
def test_certify_rejects_a_constant_that_passes_every_row(constant, value):
    # No run has such a constant, and a NaN one would pass a row of any size unflagged.
    kw = dict(e1=1.0, t1=1.0, mu_g=1.0, beta=1.0, tol=1e-6, inflation=0.0)
    kw[constant] = value
    with pytest.raises(ValueError, match=f"certify needs a .*{constant}"):
        certify([report(gap_ref=1e300)], **kw)


def report(k=1, t_k=1.0, t_next=1.0, gap_ref=0.0, dual_dist_sq=0.0, v_dist_sq=0.0):
    return EnergyReport(k=k, t_k=t_k, t_next=t_next, energy=0.0, i1=0.0, i2=0.0, i3=0.0,
                        i4=0.0, gap_ref=gap_ref, dual_dist_sq=dual_dist_sq, v_dist_sq=v_dist_sq)


@pytest.mark.parametrize("field", ["gap_ref", "dual_dist_sq", "v_dist_sq"])
def test_certify_bounds_are_exact_at_their_slack(field):
    """Each bound of the theorem, times the slack, passes; the next float above it fails."""
    e1, t1, mu_g, beta, tol, inflation = 3.7, 1.9, 0.6, 1.3, 1e-6, 0.01
    t_k, t_next = 2.9, 3.4
    bound = {
        "gap_ref": e1 / (t_k * t_k),
        "dual_dist_sq": 2.0 * e1 / (mu_g * t_k * t_k),
        "v_dist_sq": 2.0 * beta * e1 / (t_next * t_next),
    }[field]
    at_bound = bound * (1.0 + tol + inflation)
    counts = []
    for value in (at_bound, np.nextafter(at_bound, math.inf)):
        cert = certify([report(t_k=t_k, t_next=t_next, **{field: value})],
                       e1, t1, mu_g, beta, tol=tol, inflation=inflation)
        counts.append((cert.gap_violations, cert.dual_violations, cert.v_violations,
                       cert.t_lower_violations))
    flagged = {"gap_ref": (1, 0, 0, 0), "dual_dist_sq": (0, 1, 0, 0), "v_dist_sq": (0, 0, 1, 0)}
    assert counts == [(0, 0, 0, 0), flagged[field]]


def test_certify_keeps_the_first_violating_k_of_each_bound():
    """A bound that fails on two rows keeps the earlier k; one that never fails has no key."""
    rows = [report(k=k, t_k=float(k)) for k in range(1, 7)]
    for k, field in ((2, "v_dist_sq"), (3, "dual_dist_sq"), (5, "dual_dist_sq"), (5, "v_dist_sq")):
        rows[k - 1] = dataclasses.replace(rows[k - 1], **{field: 1e300})
    rows[3] = dataclasses.replace(rows[3], t_k=0.0)  # k = 4: no gap or dual bound, t-lower fails
    cert = certify(rows, 1.0, 1.0, 1.0, 1.0)
    assert cert.first_k == {"v": 2, "dual": 3, "t_lower": 4}
    assert (cert.dual_violations, cert.v_violations, cert.t_lower_violations) == (2, 2, 1)
    assert cert.gap_violations == 0


def test_certify_sets_no_gap_or_dual_bound_at_zero_t():
    """t_k = 0 (and a zero t_{k+1}) gives no bound to check, not a ZeroDivisionError."""
    cert = certify([report(t_k=0.0, t_next=0.0, gap_ref=1e300, dual_dist_sq=1e300,
                           v_dist_sq=1e300)], 1.0, 1.0, 1.0, 1.0)
    assert (cert.gap_violations, cert.dual_violations, cert.v_violations) == (0, 0, 0)
    assert cert.t_lower_violations == 1


def test_certificate_paths_agree(tmp_path):
    """certify() over a run's energy reports and over its trace CSV flags the same rows.

    The rows read back from the CSV go to certify() as they are; the fields a
    trace row lacks read NaN there."""
    cfg = ExperimentConfig("l1ls", 20, 30, seed=3, iters=60, algorithms=("iapd-op1",),
                           out_dir=tmp_path)
    result = run_benchmark(cfg)
    res = result.results["iapd-op1"]
    p = res.params
    ref = result.reference
    inflation = _reference_inflation(ref.accuracy, ref.objective_value)
    rows = read_csv(tmp_path / "iapd-op1.csv")

    def verdicts(reports):
        """Gap-bound violations, the k of each row that breaks the gap bound on its own,
        and t-lower violations."""
        reports = list(reports)

        def cert(rs):
            return certify(rs, p["E1"], p["t1"], p["mu_g"], p["beta"], inflation=inflation)

        whole = cert(reports)
        flagged = [r.k for r in reports if cert([r]).gap_violations]
        return whole.gap_violations, flagged, whole.t_lower_violations

    clean = verdicts(res.energy_reports)
    assert clean == verdicts(rows) == (0, [], 0)

    doctored_k = (5, 20, 41)

    def past_bound(r):
        return 2.0 * p["E1"] / r.t_k**2 if r.k in doctored_k else r.gap_ref

    reports = [dataclasses.replace(r, gap_ref=past_bound(r)) for r in res.energy_reports]
    rows = [dataclasses.replace(r, gap_ref=past_bound(r)) for r in rows]
    assert verdicts(reports) == verdicts(rows) == (3, list(doctored_k), 0)


def synthetic_reports(gaps):
    return [report(k=k, gap_ref=g) for k, g in enumerate(gaps, start=1)]


def test_slope_recovers_synthetic_rates():
    ks = np.arange(1, 2001)
    fit2 = slope(synthetic_reports(1.0 / ks**2), 100, 1000)
    assert fit2.slope == pytest.approx(-2.0, abs=1e-6)
    fit1 = slope(synthetic_reports(1.0 / ks), 100, 1000)
    assert fit1.slope == pytest.approx(-1.0, abs=1e-6)
    assert fit2.n_excluded == 0


def test_slope_excludes_nonpositive_rows():
    ks = np.arange(1, 201)
    gaps = list(1.0 / ks**2)
    gaps[99] = 0.0
    gaps[100] = -1.0
    fit = slope(synthetic_reports(gaps), 50, 150)
    assert fit.n_excluded == 2
    assert fit.slope == pytest.approx(-2.0, abs=1e-3)


def test_slope_insufficient_data():
    with pytest.raises(InsufficientDataError):
        slope(synthetic_reports([1.0, 0.5, 0.25]), 1, 3)
    with pytest.raises(InsufficientDataError):
        slope(synthetic_reports([0.0] * 100), 10, 90)
    with pytest.raises(ValueError):
        slope(synthetic_reports([1.0] * 10), 5, 5)


def test_energy_trace_empty_and_anchoring():
    inst, params = small_setup()
    assert energy_trace(inst.problem, params, [], fake_ref(np.zeros(30), np.zeros(20))) == []
    # Anchored at its own energy, the first row is inside its gap bound:
    # E_1 = t_1^2 gap + two nonnegative terms, and the cross term is zero at k = 1.
    inst, params, _, reports = run_reports(iters=50)
    first = reports[0]
    assert first.i4 == 0.0 and first.i2 >= 0.0 and first.i3 >= 0.0
    assert certify_run(inst.problem, params, [first], tol=0.0).gap_violations == 0


def test_energy_row_takes_two_products(monkeypatch):
    """The per-solve evaluator takes K x* once; a row then costs K x and K (u - x*)."""
    inst, params = small_setup()
    problem = inst.problem
    ref = compute_reference(problem, 300, params=params, objective=inst.objective)
    states = [init_iapd_state(problem, params)]
    for _ in range(5):
        states.append(iapd_step(problem, params, states[-1], "option1"))
    evaluate = energy_at(problem, params, ref)

    calls = []
    original = LinearMap.apply
    monkeypatch.setattr(LinearMap, "apply", lambda self, v: calls.append(1) or original(self, v))
    for st in states[1:]:
        evaluate(st)
    assert len(calls) == 2 * 5


def oracle_energy(problem, params, ref, state):
    """energy_at's report as one plain expression per field."""
    alpha, beta, t, t_next = params.alpha, params.beta, state.t, state.t_next
    xs, ys = ref.x_star, ref.y_star
    gap = oracle_lagrangian(problem, state.x, ys) - oracle_lagrangian(problem, xs, state.y)
    du, dv, dvv, dy = state.u - xs, state.v - ys, state.v - state.v_prev, state.y - ys
    i1 = t * t * gap
    i2 = float(du @ du) / (2.0 * alpha)
    i3 = (t_next * t_next) * float(dv @ dv) / (2.0 * beta)
    i4 = -t * float(problem.K.apply(du) @ dvv) + (
        (t * t - beta * problem.g2.lipschitz) * float(dvv @ dvv) / (2.0 * beta))
    return EnergyReport(state.k, t, t_next, i1 + i2 + i3 + i4, i1, i2, i3, i4, gap,
                        float(dy @ dy), float(dv @ dv))


def bits(value):
    """The bytes of a float, with every NaN as one value: a product over inf entries
    can give a NaN of either sign from one call to the next."""
    return "nan" if math.isnan(value) else np.float64(value).tobytes()


@settings(max_examples=100, deadline=None)
@given(saddle_and_points(), st.floats(1.0, 50.0), st.integers(0, 2**32 - 1))
def test_energy_reports_are_their_plain_expressions_bit_for_bit(case, t, seed):
    """Also where x or y is infeasible or holds NaN, with and without fx and K x passed in."""
    problem, x_star, y_star, x, y = case
    params = default_step_params(problem)
    rng = np.random.default_rng(seed)
    n, m = problem.primal_dim, problem.dual_dim
    state = dataclasses.replace(
        init_iapd_state(problem, params), x=x, y=y, u=rng.standard_normal(n),
        v=rng.standard_normal(m), v_prev=rng.standard_normal(m),
        t=t, t_next=next_t(t, problem.mu_g * params.beta), k=7)
    ref = ReferencePoint(x_star, y_star, 0.0, 0.0)
    with np.errstate(all="ignore"):
        want = dataclasses.astuple(oracle_energy(problem, params, ref, state))
        evaluate = energy_at(problem, params, ref)
        for got in (evaluate(state),
                    evaluate(state, problem.f1.value(x), problem.K.apply(x))):
            assert list(map(bits, dataclasses.astuple(got))) == list(map(bits, want))
