import dataclasses
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

from squeezelab import oscillator
from squeezelab.fock import FockState, QuadratureSpec, coherent_state, mode_moments, quadrature_stats
from squeezelab.oscillator import (
    BlockEvolution,
    OscillatorConfig,
    block_basis,
    blocks_to_dense,
    default_t_max,
    dense_evolve,
    evolve,
    find_optimal_squeezing,
    hamiltonian_block,
)
from squeezelab.oscillator import MAX_EXTENSIONS, MAX_NEWTON_PASSES, _first_window, _minimize_var_x, _shared_solve

# frozen from an independent dense full-space propagation (sparse Krylov
# stepping, golden refinement at xtol 1e-10, default cutoff policy)
N4_DEGENERATE_T_SQ = 0.5997971266364494
N4_DEGENERATE_VAR_MIN = 0.15225715785695826


# ---------------------------------------------------------------------------
# block structure

def test_degenerate_charge2_block():
    basis = block_basis("degenerate", 2)
    assert set(basis) == {(2, 0), (0, 1)}
    h = hamiltonian_block("degenerate", 2)
    # hand evaluation: sqrt(2*1) * sqrt(1) * kappa / 2
    assert abs(h[0, 1]) == pytest.approx(math.sqrt(2.0) / 2.0, abs=1e-15)
    assert np.allclose(h, h.conj().T)


def test_charge_zero_block_is_stationary():
    h = hamiltonian_block("degenerate", 0)
    assert h.shape == (1, 1)
    assert h[0, 0] == 0.0


@pytest.mark.parametrize("kind,charge", [("degenerate", 7), ("degenerate", 12), ("nondegenerate", 10)])
def test_block_eigenvalues_real(kind, charge):
    h = hamiltonian_block(kind, charge)
    assert np.max(np.abs(h - h.conj().T)) < 1e-12
    vals = np.linalg.eigvals(h)
    assert np.max(np.abs(vals.imag)) < 1e-10


def test_block_basis_charges_consistent():
    for kind, charges in (("degenerate", range(0, 13)), ("nondegenerate", range(0, 13, 2))):
        seen = set()
        for q in charges:
            for occ in block_basis(kind, q):
                if kind == "degenerate":
                    assert occ[0] + 2 * occ[1] == q
                else:
                    assert occ[0] == occ[1]
                    assert occ[0] + occ[1] + 2 * occ[2] == q
                assert occ not in seen
                seen.add(occ)


def test_nondegenerate_rejects_odd_charge():
    with pytest.raises(ValueError):
        block_basis("nondegenerate", 3)


def test_config_validation():
    with pytest.raises(ValueError):
        OscillatorConfig("squeezy", 4.0)
    with pytest.raises(ValueError):
        OscillatorConfig("degenerate", -1.0)
    with pytest.raises(ValueError):
        OscillatorConfig("degenerate", 4.0, coupling=0.0)
    with pytest.raises(ValueError, match="coupling 1e-310 is too small"):  # 1 / coupling overflows
        OscillatorConfig("degenerate", 4.0, coupling=1e-310)


@pytest.mark.parametrize("field", ["pump_photons", "coupling", "pump_phase"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite(field, value):
    params = {"pump_photons": 4.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        OscillatorConfig("degenerate", **params)


# ---------------------------------------------------------------------------
# evolution

@pytest.mark.parametrize("run", [evolve, dense_evolve], ids=["evolve", "dense_evolve"])
def test_grid_must_start_at_zero_and_ascend(run):
    """Both routes share one grid check: 1-d, non-empty, finite, from 0, strictly ascending."""
    cfg = OscillatorConfig("degenerate", 2.0)
    for times in ([0.1, 0.2], [0.0, 0.2, 0.1], [0.0, 0.2, 0.2], [], [[0.0, 0.1]], [0.0, math.nan], [0.0, math.inf]):
        with pytest.raises(ValueError, match="times must be"):
            run(cfg, times)


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
def test_evolve_refuses_a_time_whose_phase_overflows(kind):
    """sigma * coupling * t past the float range would give NaN rows; the first such time is named instead."""
    cfg = OscillatorConfig(kind, 4.0)
    with pytest.raises(ValueError, match=r"^time 1e\+308 is past the propagator's range: .* = inf rad"):
        evolve(cfg, [0.0, 1e308])


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
@pytest.mark.parametrize("coupling", [1.0, 0.7])
def test_evolve_refuses_a_time_past_the_phases_digits(kind, coupling):
    """A finite phase with no correct digit is refused: ``var_x`` at t = 1e300 read 6.06 (N = 4).

    The largest phase ``x = sigma kappa t`` is known to about ``eps x``; the
    first time at which that exceeds ``10^-PHASE_DIGITS`` rad is named, and
    the grid just below it runs.
    """
    cfg = OscillatorConfig(kind, 4.0, coupling)
    top = max(blk.sigma[-1] for blk in BlockEvolution(cfg).blocks.values())
    limit = 10.0**-oscillator.PHASE_DIGITS / (np.finfo(float).eps * top * coupling)  # about 4.4e7 / coupling
    with pytest.raises(ValueError, match=r"^time 1e\+300 is past .* carries fewer than 6 correct decimals"):
        evolve(cfg, [0.0, 1.0, 1e300])
    with pytest.raises(ValueError, match=re.escape(f"time {1.01 * limit:g} is past")):
        evolve(cfg, [0.0, 0.99 * limit, 1.01 * limit])
    assert np.all(np.isfinite(evolve(cfg, [0.0, 0.99 * limit]).var_x))


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
def test_zero_mode_keeps_the_norm_at_long_times(kind):
    """``|norm - 1|`` at N = 64 up to t = 1000 stays at rounding; it was 7e-8 at t = 1000.

    A block of an odd number of sites has an exact zero mode, column 0 of its
    solve, now at ``sigma² = 0`` instead of a rounding-sized value, at which
    it turned and drained norm as ``t²``.  What is left is rounding: a block's
    norm² is ``c²`` times that of ``U C`` and ``MU S``, which moves by the
    rounding of their ``k``-term sums and by the orthogonality defect of the
    computed ``U`` over its ``A`` sites, about ``(k + A) eps`` together, and the
    norm by half of it.
    """
    cfg = OscillatorConfig(kind, 64.0)
    blocks = BlockEvolution(cfg).blocks.values()
    odd = [blk for blk in blocks if blk.couplings.size % 2 == 0]
    assert odd and all(blk.eigvals[0] == 0.0 for blk in odd)
    bound = np.finfo(float).eps * max(blk.eigvals.size + blk.u.shape[0] for blk in blocks)
    result = evolve(cfg, [0.0, 1.0, 10.0, 100.0, 1000.0])
    assert np.max(np.abs(result.norm - 1.0)) <= bound


def test_vacuum_pump_is_stationary():
    result = evolve(OscillatorConfig("degenerate", 0.0), np.linspace(0.0, 3.0, 40))
    assert np.allclose(result.var_x, 1.0, atol=1e-12)
    assert np.allclose(result.intensity_y, 0.0, atol=1e-12)


def test_initial_conditions():
    result = evolve(OscillatorConfig("nondegenerate", 9.0), np.linspace(0.0, 0.5, 8))
    assert result.var_x[0] == pytest.approx(1.0, abs=1e-12)
    assert result.intensity_y[0] == pytest.approx(0.0, abs=1e-12)
    assert result.pump_n[0] == pytest.approx(9.0, abs=1e-8)


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
def test_small_time_undepleted_pump_law(kind):
    """var_X tracks exp(-2 sqrt(N) t) to 2% while sqrt(N) t <= 0.1."""
    n = 16.0
    ev = BlockEvolution(OscillatorConfig(kind, n))
    for t in (0.005, 0.0125, 0.025):
        expected = math.exp(-2.0 * math.sqrt(n) * t)
        assert abs(ev.var_x_at(t) - expected) / expected < 0.02


@settings(max_examples=12, deadline=None)
@given(
    kind=strategies.sampled_from(["degenerate", "nondegenerate"]),
    n=strategies.floats(4.0, 400.0),
    r=strategies.floats(1e-3, 0.2),
)
@example(kind="degenerate", n=4.0, r=0.2)
@example(kind="nondegenerate", n=4.0, r=0.2)
def test_undepleted_pump_law_property(kind, n, r):
    """var_x = exp(-2r) (1 + O(r³/N)) at r = sqrt(N) t <= 0.2, with the O(r³/N) term below r³/N.

    It is about r³/(6N) degenerate and r³/(3N) non-degenerate, at N = 4 as at
    N = 400; from r = 1e-3 the bound stays well above the roundoff of var_x.
    """
    var_x = BlockEvolution(OscillatorConfig(kind, n)).var_x_at(r / math.sqrt(n))
    assert abs(var_x / math.exp(-2.0 * r) - 1.0) <= r**3 / n


def test_energy_flows_out_of_pump():
    n = 16.0
    opt = find_optimal_squeezing(OscillatorConfig("degenerate", n))
    assert opt.var_min < 1.0
    obs = BlockEvolution(OscillatorConfig("degenerate", n)).observables_at(opt.t_sq)
    assert obs["pump_n"] < n
    assert obs["intensity_y"] > 0.0


def _energy_square(ev, t):
    """<H²> = sum_q ||H_q v_q(t)||² of the block states at time ``t``."""
    return sum(
        np.linalg.norm(hamiltonian_block(ev.cfg.kind, q, ev.cfg.coupling) @ v) ** 2 for q, v in ev.propagate(t).items()
    )


def test_conservation_along_trajectory():
    cfg = OscillatorConfig("degenerate", 16.0)
    result = evolve(cfg, np.linspace(0.0, 1.5, 60))
    assert np.max(np.abs(result.norm - 1.0)) < 1e-9
    assert np.max(np.abs(result.charge - result.charge[0])) / result.charge[0] < 1e-9
    ev = BlockEvolution(cfg)
    for t in result.times:
        assert _energy_square(ev, float(t)) == pytest.approx(ev.energy_scale() ** 2, rel=1e-9), t


def _dense_observables(kind, dense):
    """var_x, var_x_min_angle, intensity_y and pump_n of a dense state tensor, from Fock moments."""
    state = FockState(dense)
    pump_n = mode_moments(state, state.n_modes - 1)[2]
    if kind == "degenerate":
        _, square, number = mode_moments(state, 0)
        var_x = quadrature_stats(state, QuadratureSpec(0, -math.pi / 2))[1]
        return var_x, 1.0 + 2.0 * number - 2.0 * abs(square), number, pump_n
    n2, n3 = mode_moments(state, 0)[2], mode_moments(state, 1)[2]
    assert abs(n2 - n3) < 1e-10
    root = np.sqrt(np.arange(1.0, dense.shape[0]))
    pair = np.vdot(dense[:-1, :-1], root[:, None, None] * root[None, :, None] * dense[1:, 1:])  # <a2 a3>
    two_n = n2 + n3
    return 1.0 + two_n - 2.0 * pair.real, 1.0 + two_n - 2.0 * abs(pair), n2, pump_n


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
@pytest.mark.parametrize("n", [4.0, 6.0])
@pytest.mark.parametrize("pump_phase", [0.0, 0.8, -2.1, 3.0])
def test_observables_match_dense_moments(kind, n, pump_phase):
    """Block states and the observables record against each dense run, at criterion 5's points.

    Away from zero pump phase the block states check the frame rotation
    e^{iK phi} against the dense route's complex pump; the moments come from
    Fock moments of the dense state, and non-degenerate runs check
    ``<n2> = <n3>`` (:func:`_dense_observables`).  At coupling 1 and at 2.5
    (N = 4) or 0.7 (N = 6): the dense route keeps the coupling in its
    Hamiltonian.
    """
    times = np.array([0.0, 0.35, 0.8, 1.4])
    for coupling in (1.0, 2.5 if n == 4.0 else 0.7):
        cfg = OscillatorConfig(kind, n, coupling, pump_phase)
        dims, states = dense_evolve(cfg, times)
        ev = BlockEvolution(cfg)
        for t, dense in zip(times, states):
            scattered = blocks_to_dense(cfg, ev.propagate(float(t)), dims)
            assert np.max(np.abs(scattered - dense)) < 1e-8, (coupling, t)
        result = ev.observables(times)
        got = np.array([result.var_x, result.var_x_min_angle, result.intensity_y, result.pump_n]).T
        want = np.array([_dense_observables(kind, dense) for dense in states])
        assert np.max(np.abs(got - want)) < 1e-10, coupling


def test_pump_phase_rotates_squeezed_axis():
    cfg = OscillatorConfig("degenerate", 8.0, pump_phase=0.8)
    ev = BlockEvolution(cfg)
    obs = ev.observables_at(0.3)
    # fixed-quadrature variance misses the optimum, the angle-free one finds it
    assert obs["var_x_min_angle"] < obs["var_x"] - 1e-3
    assert obs["var_x_min_angle"] < 1.0


# ---------------------------------------------------------------------------
# optimum location

def test_regression_fixture_n4_degenerate():
    opt = find_optimal_squeezing(OscillatorConfig("degenerate", 4.0))
    assert opt.t_sq == pytest.approx(N4_DEGENERATE_T_SQ, abs=2e-5)
    assert opt.var_min == pytest.approx(N4_DEGENERATE_VAR_MIN, abs=1e-8)


def test_optimum_consistent_with_series():
    opt = find_optimal_squeezing(OscillatorConfig("nondegenerate", 8.0))
    assert opt.var_min <= np.min(opt.evolution.var_x) + 1e-12
    assert opt.resolution.s > 1.0
    assert opt.var_min_angle <= opt.var_min + 1e-12
    assert opt.resolution.s**2 * opt.var_min == pytest.approx(opt.resolution.intensity_y, rel=1e-9)


def test_vacuum_pump_optimum_trivial():
    for pump_phase in (0.0, math.pi):
        opt = find_optimal_squeezing(OscillatorConfig("degenerate", 0.0, pump_phase=pump_phase))
        assert opt.t_sq == 0.0
        assert opt.var_min == 1.0
        assert opt.resolution.s == 0.0


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
@pytest.mark.parametrize("pump_phase", [math.pi / 2, 2.0, math.pi])
def test_pump_phase_away_from_x_quadrature_raises(kind, pump_phase):
    """Squeezing at a rotated angle with var_x never below 1 is an error, not a vacuum result."""
    cfg = OscillatorConfig(kind, 16.0, pump_phase=pump_phase)
    assert BlockEvolution(cfg).observables_at(0.2)["var_x_min_angle"] < 0.9
    with pytest.raises(ValueError, match=f"pump phase {pump_phase}"):
        find_optimal_squeezing(cfg)


def test_window_doubles_until_the_minimum_is_interior(monkeypatch):
    """At pump phase pi a small pump squeezes x only past the first window [0, 2.5]."""
    cfg = OscillatorConfig("nondegenerate", 4.0, pump_phase=math.pi)
    opt = find_optimal_squeezing(cfg)
    assert opt.evolution.times[-1] == 5.0
    assert 2.5 < opt.t_sq == pytest.approx(2.8012, abs=1e-4)
    assert opt.var_min == pytest.approx(0.66896, abs=1e-5)
    monkeypatch.setattr(oscillator, "MAX_EXTENSIONS", 0)
    with pytest.raises(RuntimeError, match="window extension exhausted"):
        find_optimal_squeezing(cfg)


def test_evolution_csv_observables_positive():
    result = evolve(OscillatorConfig("degenerate", 4.0), np.linspace(0.0, 2.0, 50))
    assert np.all(result.var_x > 0.0)
    assert np.all(result.intensity_y >= -1e-12)
    assert np.all(result.pump_n >= -1e-12)


def test_optimum_search_builds_one_propagator(count_calls):
    builds = count_calls(BlockEvolution, "__init__")
    for cfg in (OscillatorConfig("degenerate", 9.0), OscillatorConfig("nondegenerate", 0.0)):
        builds.clear()
        opt = find_optimal_squeezing(cfg)
        assert len(builds) == 1
        again = evolve(cfg, opt.evolution.times)
        for field in dataclasses.fields(again):
            got, want = getattr(opt.evolution, field.name), getattr(again, field.name)
            assert np.max(np.abs(np.asarray(got) - np.asarray(want))) <= 1e-12, field.name


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
def test_var_x_at_equals_full_observables(kind):
    """The optimum search's slim objective is bit-identical to var_x of the full observables."""
    for n in (1.0, 4.0, 9.5, 22.0, 60.0, 121.0):
        ev = BlockEvolution(OscillatorConfig(kind, n))
        for t in np.linspace(0.0, 6.0 / math.sqrt(n), 7):
            assert ev.var_x_at(float(t)) == ev.observables_at(float(t))["var_x"]


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
@pytest.mark.parametrize("n", [1.0, 9.5, 60.0])
def test_var_x_derivatives_match_finite_differences(kind, n):
    """Also at couplings other than 1, where the derivatives take one and two powers of the coupling."""
    for coupling in (1.0, 0.7, 2.5):
        ev = BlockEvolution(OscillatorConfig(kind, n, coupling))
        for t in np.array([0.3, 1.1, 2.5]) / (coupling * math.sqrt(n)):
            derivatives = ev._var_x_tau_derivatives(coupling * float(t))
            assert all(type(x) is float for x in derivatives)
            value, slope, curvature = derivatives[0], coupling * derivatives[1], coupling**2 * derivatives[2]
            h = 1e-3 * t
            plus, mid, minus = ev.var_x_at(t + h), ev.var_x_at(t), ev.var_x_at(t - h)
            assert value == pytest.approx(mid, abs=1e-13)
            assert slope == pytest.approx((plus - minus) / (2.0 * h), rel=1e-5), coupling
            assert curvature == pytest.approx((plus - 2.0 * mid + minus) / h**2, rel=1e-5), coupling


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
@pytest.mark.parametrize("n", [1.0, 4.0, 22.0, 121.0])
def test_newton_refinement_against_golden_section(kind, n, count_calls):
    """Few derivative passes; var_x' vanishes at t_sq; no worse than a tight golden-section search."""
    calls = count_calls(BlockEvolution, "_var_x_tau_derivatives")
    opt = find_optimal_squeezing(OscillatorConfig(kind, n))
    assert 1 <= len(calls) <= 8
    assert type(opt.t_sq) is float
    ev = calls[0][0]
    _, slope, curvature = ev._var_x_tau_derivatives(opt.t_sq)[:3]  # coupling 1: tau = t
    assert curvature > 0.0
    assert abs(slope) <= 1e-12 * curvature * opt.t_sq  # a Newton step below 1e-12 of t_sq

    grid = opt.evolution.times
    i = int(np.argmin(opt.evolution.var_x))
    golden = minimize_scalar(
        ev.var_x_at, bracket=(grid[i - 1], grid[i], grid[i + 1]), method="golden", options={"xtol": 1e-10}
    )
    assert opt.var_min <= golden.fun + 1e-12
    assert opt.t_sq == pytest.approx(golden.x, rel=1e-6)


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
@pytest.mark.parametrize("n", [22.0, 121.0, 256.0])
def test_scan_and_derivative_pass_round_alike_near_the_optimum(kind, n):
    """``observables(t).var_x`` against the derivative pass's value at 21 times within 5 % of ``t_sq``.

    ``var_x = 1 + sum_q (2 <n_sub>_q - 2 cos(phi) P_q)`` cancels terms of
    total size about ``2 (1 + 2n)`` (``P`` is about ``n + 1/2`` at strong
    squeezing) down to ``var_x``.  Both reads add the same per-block terms in
    the same order; they differ only where the BLAS rounds the amplitudes of a
    21-time and a 5-column read differently, about an ulp each, so each squared
    or paired term by about ``2 eps``: at most ``4 eps (1 + 2n)`` in all.
    """
    cfg = OscillatorConfig(kind, n)
    ev = BlockEvolution(cfg)
    grid = ev.observables(find_optimal_squeezing(cfg).t_sq * np.linspace(0.95, 1.05, 21))
    eps = np.finfo(float).eps
    for t, var_x, n_sub in zip(grid.times, grid.var_x, grid.intensity_y):  # coupling 1: tau = t
        assert abs(var_x - ev._var_x_tau_derivatives(float(t))[0]) <= 4.0 * eps * (1.0 + 2.0 * n_sub), t


@pytest.mark.parametrize("phi", [0.0, math.pi])
def test_search_scans_once_per_window_and_reads_the_optimum_from_its_passes(phi, count_calls):
    """At pump phase pi the window doubles once; ``intensity_y`` and ``var_x_min_angle`` come from the last pass."""
    scans, points = count_calls(BlockEvolution, "observables"), count_calls(BlockEvolution, "observables_at")
    cfg = OscillatorConfig("nondegenerate", 4.0, pump_phase=phi)
    opt = find_optimal_squeezing(cfg)
    windows = round(math.log2(opt.evolution.times[-1] / default_t_max(cfg))) + 1
    assert windows == (2 if phi else 1)
    assert (len(scans), len(points)) == (windows, 0)
    at_t_sq = BlockEvolution(cfg).observables_at(opt.t_sq)  # the last pass is at most 1e-12 t_sq from t_sq
    assert opt.resolution.intensity_y == pytest.approx(at_t_sq["intensity_y"], rel=1e-11, abs=0.0)
    assert opt.var_min_angle == pytest.approx(at_t_sq["var_x_min_angle"], rel=1e-11, abs=0.0)


@pytest.mark.parametrize("kind,n,phi", [("nondegenerate", 0.3, 0.0), ("degenerate", 4.0 * math.sqrt(2.0), 1.0),
                                         ("degenerate", 46.477, 1.0)])
def test_newton_refinement_ends_when_its_step_rounds_to_zero(kind, n, phi, count_calls):
    """A Newton step that leaves t_sq unchanged ends the search; bisecting away from it took 17-36 passes."""
    calls = count_calls(BlockEvolution, "_var_x_tau_derivatives")
    opt = find_optimal_squeezing(OscillatorConfig(kind, n, pump_phase=phi))
    assert 1 <= len(calls) <= 8
    assert opt.var_min < 1.0 - 1e-12


def test_refinement_bisects_without_positive_curvature():
    """With every Newton step refused, bisection on the sign of var_x' reaches the same optimum."""
    cfg = OscillatorConfig("degenerate", 4.0)
    newton = find_optimal_squeezing(cfg)
    ev = BlockEvolution(cfg)
    calls = []

    def no_curvature(tau):
        calls.append(tau)
        value, slope, _, *at_tau = ev._var_x_tau_derivatives(tau)
        return value, slope, -1.0, *at_tau

    (tau_sq, (var_min, *_)), _ = _minimize_var_x(ev.observables, no_curvature, _first_window(cfg))  # coupling 1
    assert 8 < len(calls) <= MAX_NEWTON_PASSES
    assert tau_sq == pytest.approx(newton.t_sq, rel=1e-10)
    assert var_min == pytest.approx(newton.var_min, abs=1e-14)


def _made_up(coef, angle=None, curvature=None):
    """A read-out whose ``var_x`` is the polynomial ``coef`` in ``tau``, and the list of its passes' times.

    ``var_x_min_angle`` is ``angle`` when given, else ``var_x``; ``curvature`` replaces ``var_x''`` when given.
    """
    poly = np.polynomial.Polynomial(coef)
    passes = []

    def scan(taus):
        var_x = poly(taus)
        return SimpleNamespace(var_x=var_x, var_x_min_angle=var_x if angle is None else np.full_like(var_x, angle))

    def refine(tau):
        passes.append(tau)
        d2 = float(poly.deriv(2)(tau)) if curvature is None else curvature
        return float(poly(tau)), float(poly.deriv()(tau)), d2, 0.25, float(poly(tau)) - 0.5

    return scan, refine, passes


@pytest.mark.parametrize("curvature", [None, 0.0, -1.0])
def test_minimize_var_x_finds_a_parabolas_minimum(curvature):
    """``var_x = 0.5 + (tau - 0.3)²``: Newton steps, or bisection without positive curvature, reach ``tau = 0.3``."""
    scan, refine, passes = _made_up([0.59, -0.6, 1.0], curvature=curvature)
    (tau_sq, at_tau), last = _minimize_var_x(scan, refine, 1.0)
    assert tau_sq == pytest.approx(0.3, rel=1e-12 if curvature is None else 1e-10, abs=0.0)
    assert at_tau[0] == pytest.approx(0.5, abs=1e-15) and at_tau[3:] == (0.25, at_tau[0] - 0.5)
    assert len(last.var_x) == oscillator.GRID_POINTS
    assert (len(passes) <= 3) if curvature is None else (8 < len(passes) <= MAX_NEWTON_PASSES)


def test_minimize_var_x_refines_a_dip_no_scan_point_sees():
    """``var_x = 1 + tau (tau - 0.02)`` bottoms at 0.01, inside ``(0, tau_1 = 1/31)``, and is above 1 at every scan time."""
    scan, refine, passes = _made_up([1.0, -0.02, 1.0], angle=0.5)
    (tau_sq, at_tau), last = _minimize_var_x(scan, refine, 1.0)
    assert np.min(last.var_x) == 1.0
    assert passes[:2] == [0.0, 1.0 / 31.0]  # the slopes bracket (0, tau_1)
    assert tau_sq == pytest.approx(0.01, rel=1e-12, abs=0.0)
    assert at_tau[0] == pytest.approx(1.0 - 1e-4, rel=1e-15)


def test_minimize_var_x_stationary_read_out():
    """A flat ``var_x = var_x_min_angle = 1``, as a vacuum pump gives, is stationary: no pass is made."""
    scan, refine, passes = _made_up([1.0])
    (tau_sq, at_tau), last = _minimize_var_x(scan, refine, 1.0)
    assert (tau_sq, at_tau, passes) == (0.0, (1.0, 0.0, 0.0, 0.0, 1.0), [])
    assert np.all(last.var_x == 1.0)


@pytest.mark.parametrize("coef", [[1.0, 0.0, 1.0], [1.0, -2e-16, 1e-14]], ids=["rising", "too-shallow-dip"])
def test_minimize_var_x_reports_var_x_never_below_1(coef):
    """A ``var_x`` that only rises, or whose dip in ``(0, tau_1)`` stays above ``1 - 1e-12``, squeezes only away from x."""
    scan, refine, _ = _made_up(coef, angle=0.5)
    optimum, last = _minimize_var_x(scan, refine, 1.0)
    assert optimum is None and len(last.var_x) == oscillator.GRID_POINTS


def test_minimize_var_x_gives_up_past_the_last_window():
    """``var_x = 1 + 1e-6 tau (tau - 2000)`` falls to ``tau = 1000``, past ``2^MAX_EXTENSIONS = 256`` first windows."""
    scan, refine, passes = _made_up([1.0, -2e-3, 1e-6])
    with pytest.raises(RuntimeError, match="window extension exhausted"):
        _minimize_var_x(scan, refine, 1.0)
    assert passes == [] and 2.0**MAX_EXTENSIONS < 1000.0


@settings(max_examples=15, deadline=None)
@given(
    kind=strategies.sampled_from(["degenerate", "nondegenerate"]),
    n=strategies.floats(0.5, 256.0),
    pump_phase=strategies.floats(-1.5, 1.5),
)
@example(kind="degenerate", n=121.0, pump_phase=1.5)  # the early dip lies before the first scan time
def test_coarse_bracket_finds_the_minimum_property(kind, n, pump_phase):
    """The 32-point bracket refines to ``var_x' = 0`` at the lowest ``var_x`` a 400-point scan of its window sees."""
    cfg = OscillatorConfig(kind, n, pump_phase=pump_phase)
    ev = BlockEvolution(cfg)
    opt = find_optimal_squeezing(cfg)
    fine = ev.observables(np.linspace(0.0, opt.evolution.times[-1], 400))
    assert opt.var_min <= np.min(fine.var_x) + 1e-12
    _, slope, curvature = ev._var_x_tau_derivatives(opt.t_sq)[:3]  # coupling 1: tau = t
    assert abs(slope) <= 1e-12 * curvature * opt.t_sq


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
@pytest.mark.parametrize("n", [1.0, 22.0, 121.0])
def test_early_dip_near_half_pi_is_bracketed_before_the_first_scan_time(kind, n, monkeypatch):
    """Near ``phi = pi/2`` the dip of ``var_x`` bottoms near ``cos(phi) / (2 kappa sqrt(N))``, before ``t_1``.

    The 32-point scan sees no point of it below 1, so the search refines in
    ``(0, t_1)``.  At ``|phi|`` = 1.45 and 1.52 a 200-point scan, the earlier
    search, still sees the dip: both agree to 1e-11.  At 1.56 only the
    ``(0, t_1)`` bracket finds it.
    """
    for phi in (1.45, -1.45, 1.52):
        cfg = OscillatorConfig(kind, n, pump_phase=phi)
        opt = find_optimal_squeezing(cfg)
        assert opt.t_sq < opt.evolution.times[1]
        with monkeypatch.context() as patched:
            patched.setattr(oscillator, "GRID_POINTS", 200)
            fine = find_optimal_squeezing(cfg)
        for got, want in ((opt.t_sq, fine.t_sq), (opt.var_min, fine.var_min),
                          (opt.resolution.s, fine.resolution.s), (opt.s_min_angle, fine.s_min_angle)):
            assert got == pytest.approx(want, rel=1e-11, abs=0.0), phi
    cfg = OscillatorConfig(kind, n, pump_phase=1.56)
    opt = find_optimal_squeezing(cfg)
    assert opt.t_sq < opt.evolution.times[1]
    assert opt.var_min < 1.0
    bottom = math.cos(cfg.pump_phase) / (2.0 * cfg.coupling * math.sqrt(n))
    assert opt.var_min <= BlockEvolution(cfg).observables_at(bottom)["var_x"]


@settings(max_examples=12, deadline=None)
@given(
    kind=strategies.sampled_from(["degenerate", "nondegenerate"]),
    n=strategies.floats(0.1, 150.0),
    t_unit=strategies.floats(0.0, 3.0),
)
def test_conservation_property(kind, n, t_unit):
    """Norm and charge through observables, and <H²> of the states at the same times, at random runs."""
    cfg = OscillatorConfig(kind, n)
    ev = BlockEvolution(cfg)
    result = ev.observables(np.linspace(0.0, t_unit / math.sqrt(n), 4))
    assert np.max(np.abs(result.norm**2 - 1.0)) < 1e-9
    assert np.max(np.abs(result.charge - result.charge[0])) < 1e-9 * result.charge[0]
    for t in result.times:
        assert _energy_square(ev, float(t)) == pytest.approx(ev.energy_scale() ** 2, rel=1e-9), t


@settings(max_examples=12, deadline=None)
@given(
    kind=strategies.sampled_from(["degenerate", "nondegenerate"]),
    n=strategies.floats(0.1, 150.0),
    coupling=strategies.floats(0.1, 10.0),
    t_unit=strategies.floats(0.0, 3.0),
)
def test_energy_square_conserved_property(kind, n, coupling, t_unit):
    """<H²> of the block states equals its start value ||H psi0||², at random runs, couplings and times."""
    cfg = OscillatorConfig(kind, n, coupling)
    ev = BlockEvolution(cfg)
    t = t_unit / (coupling * math.sqrt(n))
    assert _energy_square(ev, t) == pytest.approx(ev.energy_scale() ** 2, rel=1e-9)


def _direct_read_out(ev, tau):
    """The read-outs of a run at ``tau = kappa t`` summed directly from its block states, and their rounding scales.

    ``var_x - 1 = F(v, v)`` for the real symmetric form ``F(x, y) = Re sum_q
    [2 sum n_sub conj(x_q) y_q - sum p (conj(x_{q-2}) y_q + conj(y_{q-2}) x_q)]``,
    where site ``k`` of block ``q`` meets site ``k`` of block ``q - 2`` with
    weight ``p = sqrt(n1 (n1 - 1))`` or ``m`` (:func:`block_basis` occupations).
    With ``v' = -iHv`` and ``v'' = -H²v`` in ``tau``, the slope is ``2 F(v, v')``
    and the curvature ``2 F(v', v') + 2 F(v, v'')``.  ``scale(g)`` bounds every
    per-site weight of a read-out times the squared norm of the eigen-coordinates
    of ``g``-scaled derivative columns, ``sum_q (1 + 2q + 2 max p) ||c_q u_last (1 +
    g sigma + g² sigma²)||²``: ``g = 0`` for the values, ``g = h`` for the pass.
    """
    kind, h = ev.cfg.kind, 0.2 * _first_window(ev.cfg)
    states = ev.propagate(tau / ev.cfg.coupling)
    occ, pair_weight, dv, d2v = {}, {}, {}, {}
    for q, v in states.items():
        occ[q] = np.array(block_basis(kind, q), dtype=float)
        sub = occ[q][:, 0]
        pair_weight[q] = np.sqrt(np.maximum(sub * (sub - 1.0), 0.0)) if kind == "degenerate" else sub
        h_q = hamiltonian_block(kind, q)
        dv[q] = -1j * (h_q @ v)
        d2v[q] = -(h_q @ (h_q @ v))

    def form(x, y):
        total = 0.0
        for q in x:
            total += 2.0 * np.sum(occ[q][:, 0] * np.conj(x[q]) * y[q]).real
            if q - 2 in x:
                p = pair_weight[q][:-1]
                total -= (np.vdot(x[q - 2], p * y[q][:-1]) + np.vdot(y[q - 2], p * x[q][:-1])).real
        return total

    pair = sum(np.vdot(states[q - 2], pair_weight[q][:-1] * v[:-1]) for q, v in states.items() if q - 2 in states)
    weights = {q: np.abs(v) ** 2 for q, v in states.items()}
    n_sub = sum(occ[q][:, 0] @ w for q, w in weights.items())

    def scale(g):
        return sum((1.0 + 2.0 * q + 2.0 * pair_weight[q].max())
                   * np.sum((ev.amps[q] * blk.u[-1] * (1.0 + g * blk.sigma + (g * blk.sigma) ** 2)) ** 2)
                   for q, blk in ev.blocks.items())

    return {
        "var_x": 1.0 + form(states, states), "var_x_min_angle": 1.0 + 2.0 * n_sub - 2.0 * abs(pair),
        "intensity_y": n_sub, "pump_n": sum(occ[q][:, -1] @ w for q, w in weights.items()),
        "norm_sq": sum(np.sum(w) for w in weights.values()), "charge": sum(q * np.sum(w) for q, w in weights.items()),
        "slope": 2.0 * form(states, dv), "curvature": 2.0 * form(dv, dv) + 2.0 * form(states, d2v),
        "value_scale": scale(0.0), "pass_scale": scale(h), "h": h,
    }


@settings(max_examples=20, deadline=None)
@given(
    kind=strategies.sampled_from(["degenerate", "nondegenerate"]),
    n=strategies.floats(0.0, 300.0),
    pump_phase=strategies.floats(-math.pi, math.pi),
    coupling=strategies.floats(0.1, 10.0),
    t_unit=strategies.floats(0.0, 3.0),
)
@example(kind="degenerate", n=0.0, pump_phase=0.3, coupling=1.0, t_unit=1.0)  # the vacuum block alone
@example(kind="nondegenerate", n=1e-20, pump_phase=-1.0, coupling=2.0, t_unit=1.0)  # the same: 1e-20 of pump
@example(kind="degenerate", n=4.0, pump_phase=0.0, coupling=1.0, t_unit=1.2)  # from slab 0 into slab 1
@example(kind="nondegenerate", n=121.0, pump_phase=0.5, coupling=0.7, t_unit=2.0)  # starts and ends inside a slab
@example(kind="degenerate", n=300.0, pump_phase=-2.5, coupling=3.0, t_unit=0.4)
def test_slab_read_out_matches_moments_of_the_block_states_property(kind, n, pump_phase, coupling, t_unit):
    """``observables`` and ``_var_x_tau_derivatives``, summed over slabs, against sums over the states of ``propagate``.

    The two routes share the block solves and differ in rounding only.  Each
    amplitude is a sum of at most ``k`` products (``k`` kept columns), so it
    rounds by at most ``k eps`` of the norm of its eigen-coordinates (``U``'s
    rows have unit norm, ``MU``'s columns norm ``sigma``), and a squared or
    paired term by that plus two roundings: the values are held to ``(k + 2)
    eps scale(0)`` (:func:`_direct_read_out`).  The slope and curvature
    combine three and five polarized sums of the pass, each rounding by at
    most ``k eps scale(h)``, divided by ``h`` and ``h²``; the direct route
    adds one more such term.
    """
    cfg = OscillatorConfig(kind, n, coupling, pump_phase)
    ev = BlockEvolution(cfg)
    if n >= 60.0:  # the run drops charge 0, so it starts inside a slab, and it crosses slab boundaries
        assert len(ev.slabs) > 1 and min(ev.amps) > 0
    tau = t_unit / math.sqrt(max(n, 1.0))
    want = _direct_read_out(ev, tau)
    got = ev.observables_at(tau / coupling)
    k = max(blk.eigvals.size for blk in ev.blocks.values())
    bound = (k + 2) * np.finfo(float).eps * want["value_scale"]
    got["norm_sq"] = got["norm"] ** 2
    for name in ("var_x", "var_x_min_angle", "intensity_y", "pump_n", "charge", "norm_sq"):
        assert abs(got[name] - want[name]) <= bound, name
    value, slope, curvature, intensity, min_angle = ev._var_x_tau_derivatives(tau)
    for name, x in (("var_x", value), ("intensity_y", intensity), ("var_x_min_angle", min_angle)):
        assert abs(x - want[name]) <= bound, name
    pass_rounding = k * np.finfo(float).eps * want["pass_scale"]
    assert abs(slope - want["slope"]) <= 4.0 * pass_rounding / want["h"]
    assert abs(curvature - want["curvature"]) <= 6.0 * pass_rounding / want["h"] ** 2


def _block_of_dim(kind, dim):
    """The memoized solve of the block of size ``dim`` and its Hamiltonian."""
    charge = 2 * (dim - 1)
    return _shared_solve(kind, charge), hamiltonian_block(kind, charge)


@settings(max_examples=40, deadline=None)
@given(
    kind=strategies.sampled_from(["degenerate", "nondegenerate"]),
    dim=strategies.integers(1, 80),
    t=strategies.floats(-2.0, 2.0),
    seed=strategies.integers(0, 2**32 - 1),
)
@example(kind="degenerate", dim=1, t=0.7, seed=0)
@example(kind="nondegenerate", dim=2, t=-1.3, seed=1)
@example(kind="degenerate", dim=3, t=1.9, seed=2)  # odd: J² on A has a zero mode
def test_block_propagator_property(kind, dim, t, seed):
    """The state of a block started as ``c e_last`` against expm, at any block size and random ``c``.

    The block propagates the real ``|c|``; the phase ``c / |c|`` is applied
    outside it, as :meth:`BlockEvolution.propagate` applies the pump phase.
    """
    rng = np.random.default_rng(seed)
    c = complex(rng.normal(), rng.normal())
    blk, h = _block_of_dim(kind, dim)
    assert np.max(np.abs(c / abs(c) * blk.state(t, abs(c)) - c * expm(-1j * t * h)[:, -1])) < 1e-9


# ---------------------------------------------------------------------------
# large blocks and large pumps

@pytest.mark.parametrize("kind,dim", [("degenerate", 601), ("nondegenerate", 600)])
def test_sublattice_propagator_large_blocks(kind, dim):
    """The state started on the last site against expm of the dense block."""
    blk, h = _block_of_dim(kind, dim)
    for t in (0.002, 0.01, 0.05):
        assert np.max(np.abs(blk.state(t, 1.0) - expm(-1j * t * h)[:, -1])) < 1e-10


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
@pytest.mark.parametrize("n", [16.0, 121.0, 256.0])
def test_truncated_solve_matches_full_solve(kind, n, monkeypatch):
    """Dropping the eigenvector columns the start site does not see moves no result beyond 1e-12."""
    cfg = OscillatorConfig(kind, n)
    blocks = BlockEvolution(cfg).blocks.values()
    assert all(blk.u.base.flags.owndata and blk.u.base.ndim == 3 for blk in blocks)  # the slab's copy, not the full U
    if n == 256.0:
        assert any(blk.eigvals.size < blk.u.shape[0] for blk in blocks)
    truncated = find_optimal_squeezing(cfg)
    monkeypatch.setattr(oscillator, "START_WEIGHT_TAIL", -1.0)  # keeps every column
    monkeypatch.setattr(oscillator, "_solve_cache", {})  # the memo is keyed by (kind, charge), not by the tail
    assert all(blk.eigvals.size == blk.u.shape[0] for blk in BlockEvolution(cfg).blocks.values())
    full = find_optimal_squeezing(cfg)

    got, want = truncated.evolution, full.evolution
    assert np.array_equal(got.times, want.times)
    assert np.max(np.abs(got.var_x - want.var_x)) <= 1e-12
    for name in ("intensity_y", "pump_n"):
        assert np.max(np.abs(getattr(got, name) - getattr(want, name))) <= 1e-12 * n, name
    for name, a, b in (("t_sq", truncated.t_sq, full.t_sq), ("var_min", truncated.var_min, full.var_min),
                       ("S", truncated.resolution.s, full.resolution.s)):
        assert a == pytest.approx(b, rel=1e-12, abs=0.0), name


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
def test_pump_above_140_photons_conserves_norm_and_charge(kind):
    cfg = OscillatorConfig(kind, 144.0)
    ev = BlockEvolution(cfg)
    assert max(ev.blocks) == 2 * 227  # pump cutoff raised past the 6-sigma floor of 226
    result = evolve(cfg, np.linspace(0.0, 0.6, 25))
    assert np.max(np.abs(result.norm - 1.0)) < 1e-9
    assert np.max(np.abs(result.charge - result.charge[0])) / result.charge[0] < 1e-9
    assert np.min(result.var_x) < 1.0


# ---------------------------------------------------------------------------
# the memo of block solves

def _same_optimum(a, b) -> bool:
    return all(
        np.array_equal(getattr(a.evolution, f.name), getattr(b.evolution, f.name))
        for f in dataclasses.fields(a.evolution)
    ) and (a.t_sq, a.var_min, a.resolution, a.var_min_angle, a.s_min_angle) == (
        b.t_sq, b.var_min, b.resolution, b.var_min_angle, b.s_min_angle
    )


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
@pytest.mark.parametrize("coupling", [1.0, 0.7])
def test_optimum_is_bitwise_equal_with_cold_and_warm_memo(kind, coupling, monkeypatch, count_calls):
    """An ascending then a descending sweep on one memo give the bits of a fresh memo per point."""
    n_values = [float(n) for n in np.geomspace(4.0, 121.0, 5)]
    cold = {}
    for n in n_values:
        monkeypatch.setattr(oscillator, "_solve_cache", {})
        cold[n] = find_optimal_squeezing(OscillatorConfig(kind, n, coupling))
    monkeypatch.setattr(oscillator, "_solve_cache", {})
    for n in n_values:
        assert _same_optimum(find_optimal_squeezing(OscillatorConfig(kind, n, coupling)), cold[n]), n
    solves = count_calls(oscillator, "_sublattice_solve")
    for n in reversed(n_values):
        assert _same_optimum(find_optimal_squeezing(OscillatorConfig(kind, n, coupling)), cold[n]), n
    assert solves == []  # the ascending sweep solved every block the descending one needs


def test_memoized_solve_is_read_only():
    blk = _shared_solve("degenerate", 12)
    with pytest.raises(ValueError, match="read-only"):
        blk.u[0, 0] = 1.0
    arrays = [value for value in vars(blk).values() if isinstance(value, np.ndarray)]
    slab = oscillator._solve_cache["degenerate", 0]
    arrays += [value for value in vars(slab).values() if isinstance(value, np.ndarray)]
    assert len(arrays) == 6 + 12 and not any(array.flags.writeable for array in arrays)
    assert _shared_solve("degenerate", 12) is blk
    for amp in (0.5, 2.0):  # two amplitudes read one u: each call forms its start vector amp u[-1]
        assert np.array_equal(blk.columns(0.0, amp)[0], amp * blk.u[-1])


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
def test_run_holds_the_memoized_solves_and_its_start_amplitudes(kind):
    """A run's blocks are the memo's own solves, views into their slab, not copies; its amplitudes are the pump's |c_K|."""
    ev = BlockEvolution(OscillatorConfig(kind, 22.0))
    assert ev.blocks and set(ev.amps) == set(ev.blocks)
    for q, blk in ev.blocks.items():
        slab = oscillator._solve_cache[(kind, q // (2 * oscillator.SLAB))]
        assert blk is slab.blocks[q // 2 % oscillator.SLAB], q
        assert all(getattr(blk, name).base is getattr(slab, name) for name in ("couplings", "u", "mu", "eigvals")), q
    for slab, start in ev.slabs:
        assert all(start[i] == ev.amps.get(int(q), 0.0) for i, q in enumerate(slab.charges))
    amps = coherent_state(math.sqrt(22.0)).amps.real
    assert all(ev.amps[q] == amps[q // 2] for q in ev.amps)


def test_other_coupling_reuses_the_solves(monkeypatch, count_calls):
    """The memo holds coupling-1 solves by (kind, charge): a run at coupling 0.7 after one at 1 solves nothing."""
    monkeypatch.setattr(oscillator, "_solve_cache", {})
    find_optimal_squeezing(OscillatorConfig("degenerate", 22.0))
    keys = set(oscillator._solve_cache)
    assert keys and all(kind == "degenerate" for kind, _ in keys)
    solves = count_calls(oscillator, "_sublattice_solve")
    find_optimal_squeezing(OscillatorConfig("degenerate", 22.0, coupling=0.7))
    assert solves == [] and set(oscillator._solve_cache) == keys


# ---------------------------------------------------------------------------
# the coupling is the unit of time

@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
@pytest.mark.parametrize("coupling", [0.7, 2.5, 1e-170, 1e300])
def test_observables_at_coupling_are_those_at_coupling_1_in_scaled_time(kind, coupling):
    """Bit for bit: the run at coupling kappa and time t reads the coupling-1 run at kappa t."""
    n = 22.0
    times = np.linspace(0.0, 3.0 / math.sqrt(n), 9) / coupling
    got = BlockEvolution(OscillatorConfig(kind, n, coupling)).observables(times)
    want = BlockEvolution(OscillatorConfig(kind, n)).observables(coupling * times)
    for field in dataclasses.fields(got):
        if field.name != "times":
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
@pytest.mark.parametrize("coupling", [1e-170, 1e-160, 1e155, 1e300])
def test_optimum_at_extreme_couplings_matches_coupling_1(kind, coupling, count_calls):
    """``kappa t_sq``, ``var_min``, ``S`` and the derivative passes at extreme couplings against coupling 1, N = 22.

    The search runs in ``tau = kappa t``, so it takes the passes of the
    coupling-1 run, at the same ``tau``, and ``kappa`` never meets the
    curvature.  The runs differ only where the result is read:
    ``t_sq = tau_sq / kappa`` is one rounding off, so ``kappa t_sq`` agrees to
    a few ulp, well inside 2e-12, and the observables are read at ``kappa
    t_sq``.  ``var_x'`` vanishes at the optimum, so that shift moves
    ``var_min`` only to second order; what is left is the rounding of
    ``var_x = 1 + 2n - 2P``, whose terms of size ``2n`` cancel down to
    ``var_x``, about ``eps 2n / var_x`` per rounding (2.6e-14 here), allowed
    16 times.  ``S = sqrt(n / var_x)`` moves by half the ``var_x`` bound and
    by ``d ln S / d ln t`` (about 1.7 here, below 2) times the ``t`` bound.
    """
    passes = count_calls(BlockEvolution, "_var_x_tau_derivatives")
    n = 22.0
    ref = find_optimal_squeezing(OscillatorConfig(kind, n))
    ref_passes = len(passes)
    opt = find_optimal_squeezing(OscillatorConfig(kind, n, coupling))
    assert len(passes) == 2 * ref_passes  # the coupling-1 refinement, not bisection (34 passes)
    eps = np.finfo(float).eps
    t_bound = 2e-12
    var_bound = 16.0 * eps * 2.0 * ref.resolution.intensity_y / ref.var_min
    assert type(opt.t_sq) is float
    assert coupling * opt.t_sq == pytest.approx(ref.t_sq, rel=t_bound, abs=0.0)
    assert opt.var_min == pytest.approx(ref.var_min, rel=var_bound, abs=0.0)
    assert opt.resolution.s == pytest.approx(ref.resolution.s, rel=0.5 * var_bound + 2.0 * t_bound, abs=0.0)
