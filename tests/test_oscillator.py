import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

from squeezelab import oscillator
from squeezelab.fock import FockState, QuadratureSpec, mode_moments, quadrature_stats
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
from squeezelab.oscillator import MAX_NEWTON_PASSES, _solve_block

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

def test_grid_must_start_at_zero_and_ascend():
    cfg = OscillatorConfig("degenerate", 2.0)
    with pytest.raises(ValueError):
        evolve(cfg, [0.1, 0.2])
    with pytest.raises(ValueError):
        evolve(cfg, [0.0, 0.2, 0.1])


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


def test_conservation_along_trajectory():
    cfg = OscillatorConfig("degenerate", 16.0)
    result = evolve(cfg, np.linspace(0.0, 1.5, 60))
    assert np.max(np.abs(result.norm - 1.0)) < 1e-9
    assert np.max(np.abs(result.charge - result.charge[0])) / result.charge[0] < 1e-9
    scale = BlockEvolution(cfg).energy_scale()
    assert np.max(np.abs(result.energy - result.energy[0])) < 1e-9 * scale


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
def test_block_matches_dense_propagation(kind):
    """Also away from zero pump phase: the frame rotation e^{iK phi} against the dense route's complex pump.

    And away from coupling 1, which the dense route keeps in its Hamiltonian.
    """
    for pump_phase, coupling in ((0.0, 1.0), (-2.1, 1.0), (3.0, 1.0), (0.0, 0.7), (-2.1, 2.5)):
        cfg = OscillatorConfig(kind, 4.0, coupling, pump_phase)
        times = np.array([0.0, 0.4, 0.9])
        dims, states = dense_evolve(cfg, times)
        ev = BlockEvolution(cfg)
        for t, dense in zip(times, states):
            scattered = blocks_to_dense(cfg, ev.propagate(float(t)), dims)
            assert np.max(np.abs(scattered - dense)) < 1e-8, (pump_phase, coupling)


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
    """The observables record against Fock moments of the dense route, at criterion 5's points.

    At coupling 1 and at 2.5 (N = 4) or 0.7 (N = 6): the dense route keeps the coupling in its Hamiltonian.
    """
    times = np.array([0.0, 0.35, 0.8, 1.4])
    for coupling in (1.0, 2.5 if n == 4.0 else 0.7):
        cfg = OscillatorConfig(kind, n, coupling, pump_phase)
        _, states = dense_evolve(cfg, times)
        result = BlockEvolution(cfg).observables(times)
        got = np.array([result.var_x, result.var_x_min_angle, result.intensity_y, result.pump_n]).T
        want = np.array([_dense_observables(kind, dense) for dense in states])
        assert np.max(np.abs(got - want)) < 1e-10, coupling


def test_nondegenerate_signal_idler_symmetry():
    """Dense run: <n2> = <n3> at all times with vacuum signal/idler."""
    cfg = OscillatorConfig("nondegenerate", 4.0)
    times = np.array([0.0, 0.3, 0.7, 1.2])
    dims, states = dense_evolve(cfg, times)
    for dense in states:
        p = np.abs(dense) ** 2
        n2 = float(np.sum(p * np.arange(dims[0])[:, None, None]))
        n3 = float(np.sum(p * np.arange(dims[1])[None, :, None]))
        assert abs(n2 - n3) < 1e-9


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


def test_optimum_search_builds_one_propagator(monkeypatch):
    builds = []
    original = BlockEvolution.__init__

    def counting(self, *args, **kwargs):
        builds.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(BlockEvolution, "__init__", counting)
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
            derivatives = ev.var_x_derivatives(float(t))
            assert all(type(x) is float for x in derivatives)
            value, slope, curvature = derivatives
            h = 1e-3 * t
            plus, mid, minus = ev.var_x_at(t + h), ev.var_x_at(t), ev.var_x_at(t - h)
            assert value == pytest.approx(mid, abs=1e-13)
            assert slope == pytest.approx((plus - minus) / (2.0 * h), rel=1e-5), coupling
            assert curvature == pytest.approx((plus - 2.0 * mid + minus) / h**2, rel=1e-5), coupling


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
@pytest.mark.parametrize("n", [1.0, 4.0, 22.0, 121.0])
def test_newton_refinement_against_golden_section(kind, n, monkeypatch):
    """Few derivative passes; var_x' vanishes at t_sq; no worse than a tight golden-section search."""
    calls = []
    original = BlockEvolution._var_x_tau_derivatives

    def counting(self, tau):
        calls.append(self)
        return original(self, tau)

    monkeypatch.setattr(BlockEvolution, "_var_x_tau_derivatives", counting)
    opt = find_optimal_squeezing(OscillatorConfig(kind, n))
    assert 1 <= len(calls) <= 8
    assert type(opt.t_sq) is float
    ev = calls[0]
    _, slope, curvature = ev.var_x_derivatives(opt.t_sq)
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
    ev = BlockEvolution(OscillatorConfig(kind, n))
    grid = ev.observables(ev.optimal_squeezing().t_sq * np.linspace(0.95, 1.05, 21))
    eps = np.finfo(float).eps
    for t, var_x, n_sub in zip(grid.times, grid.var_x, grid.intensity_y):
        assert abs(var_x - ev.var_x_derivatives(float(t))[0]) <= 4.0 * eps * (1.0 + 2.0 * n_sub), t


@pytest.mark.parametrize("phi", [0.0, math.pi])
def test_search_scans_once_per_window_and_reads_the_optimum_from_its_passes(phi, monkeypatch):
    """At pump phase pi the window doubles once; ``intensity_y`` and ``var_x_min_angle`` come from the last pass."""
    calls = {"observables": 0, "observables_at": 0}
    for name in calls:
        def counting(self, *args, _name=name, _original=getattr(BlockEvolution, name)):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(BlockEvolution, name, counting)
    cfg = OscillatorConfig("nondegenerate", 4.0, pump_phase=phi)
    opt = find_optimal_squeezing(cfg)
    windows = round(math.log2(opt.evolution.times[-1] / default_t_max(cfg))) + 1
    assert windows == (2 if phi else 1)
    assert calls == {"observables": windows, "observables_at": 0}
    at_t_sq = BlockEvolution(cfg).observables_at(opt.t_sq)  # the last pass is at most 1e-12 t_sq from t_sq
    assert opt.resolution.intensity_y == pytest.approx(at_t_sq["intensity_y"], rel=1e-11, abs=0.0)
    assert opt.var_min_angle == pytest.approx(at_t_sq["var_x_min_angle"], rel=1e-11, abs=0.0)


@pytest.mark.parametrize("kind,n,phi", [("nondegenerate", 0.3, 0.0), ("degenerate", 4.0 * math.sqrt(2.0), 1.0),
                                         ("degenerate", 46.477, 1.0)])
def test_newton_refinement_ends_when_its_step_rounds_to_zero(kind, n, phi, monkeypatch):
    """A Newton step that leaves t_sq unchanged ends the search; bisecting away from it took 17-36 passes."""
    calls = []
    original = BlockEvolution._var_x_tau_derivatives

    def counting(self, tau):
        calls.append(tau)
        return original(self, tau)

    monkeypatch.setattr(BlockEvolution, "_var_x_tau_derivatives", counting)
    opt = find_optimal_squeezing(OscillatorConfig(kind, n, pump_phase=phi))
    assert 1 <= len(calls) <= 8
    assert opt.var_min < 1.0 - 1e-12


def test_refinement_bisects_without_positive_curvature(monkeypatch):
    """With every Newton step refused, bisection on the sign of var_x' reaches the same optimum."""
    cfg = OscillatorConfig("degenerate", 4.0)
    newton = find_optimal_squeezing(cfg)
    calls = []
    original = BlockEvolution._var_x_tau_derivatives

    def no_curvature(self, tau):
        calls.append(tau)
        value, slope, _, *at_tau = original(self, tau)
        return value, slope, -1.0, *at_tau

    monkeypatch.setattr(BlockEvolution, "_var_x_tau_derivatives", no_curvature)
    bisected = find_optimal_squeezing(cfg)
    assert 8 < len(calls) <= MAX_NEWTON_PASSES
    assert bisected.t_sq == pytest.approx(newton.t_sq, rel=1e-10)
    assert bisected.var_min == pytest.approx(newton.var_min, abs=1e-14)


@settings(max_examples=15, deadline=None)
@given(
    kind=strategies.sampled_from(["degenerate", "nondegenerate"]),
    n=strategies.floats(0.5, 256.0),
    pump_phase=strategies.floats(-1.5, 1.5),
)
@example(kind="degenerate", n=121.0, pump_phase=1.5)  # the early dip lies before the first scan time
def test_coarse_bracket_finds_the_minimum_property(kind, n, pump_phase):
    """The 32-point bracket refines to ``var_x' = 0`` at the lowest ``var_x`` a 400-point scan of its window sees."""
    ev = BlockEvolution(OscillatorConfig(kind, n, pump_phase=pump_phase))
    opt = ev.optimal_squeezing()
    fine = ev.observables(np.linspace(0.0, opt.evolution.times[-1], 400))
    assert opt.var_min <= np.min(fine.var_x) + 1e-12
    _, slope, curvature = ev.var_x_derivatives(opt.t_sq)
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
    """Norm, charge and energy through observables, at random runs."""
    cfg = OscillatorConfig(kind, n)
    ev = BlockEvolution(cfg)
    result = ev.observables(np.linspace(0.0, t_unit / math.sqrt(n), 4))
    assert np.max(np.abs(result.norm**2 - 1.0)) < 1e-9
    assert np.max(np.abs(result.charge - result.charge[0])) < 1e-9 * result.charge[0]
    assert np.max(np.abs(result.energy - result.energy[0])) < 1e-9 * ev.energy_scale()


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
    h_squared = sum(
        np.linalg.norm(hamiltonian_block(kind, q, cfg.coupling) @ v) ** 2 for q, v in ev.propagate(t).items()
    )
    assert h_squared == pytest.approx(ev.energy_scale() ** 2, rel=1e-9)


def _block_of_dim(kind, dim, amp=1.0):
    """The block of size ``dim`` that starts as ``amp >= 0`` on its last site."""
    charge = 2 * (dim - 1)
    return _solve_block(kind, charge, amp), hamiltonian_block(kind, charge)


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
    blk, h = _block_of_dim(kind, dim, abs(c))
    assert np.max(np.abs(c / abs(c) * blk.state(t) - c * expm(-1j * t * h)[:, -1])) < 1e-9


# ---------------------------------------------------------------------------
# large blocks and large pumps

@pytest.mark.parametrize("kind,dim", [("degenerate", 601), ("nondegenerate", 600)])
def test_sublattice_propagator_large_blocks(kind, dim):
    """The state started on the last site against expm of the dense block."""
    blk, h = _block_of_dim(kind, dim)
    for t in (0.002, 0.01, 0.05):
        assert np.max(np.abs(blk.state(t) - expm(-1j * t * h)[:, -1])) < 1e-10


@pytest.mark.parametrize("kind", ["degenerate", "nondegenerate"])
@pytest.mark.parametrize("n", [16.0, 121.0, 256.0])
def test_truncated_solve_matches_full_solve(kind, n, monkeypatch):
    """Dropping the eigenvector columns the start site does not see moves no result beyond 1e-12."""
    cfg = OscillatorConfig(kind, n)
    blocks = BlockEvolution(cfg).blocks.values()
    assert all(blk.u.flags.owndata for blk in blocks)  # a view would keep the full U alive
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
def test_optimum_is_bitwise_equal_with_cold_and_warm_memo(kind, coupling, monkeypatch):
    """An ascending then a descending sweep on one memo give the bits of a fresh memo per point."""
    n_values = [float(n) for n in np.geomspace(4.0, 121.0, 5)]
    cold = {}
    for n in n_values:
        monkeypatch.setattr(oscillator, "_solve_cache", {})
        cold[n] = find_optimal_squeezing(OscillatorConfig(kind, n, coupling))
    monkeypatch.setattr(oscillator, "_solve_cache", {})
    for n in n_values:
        assert _same_optimum(find_optimal_squeezing(OscillatorConfig(kind, n, coupling)), cold[n]), n
    solves = []
    original = oscillator._sublattice_solve
    monkeypatch.setattr(oscillator, "_sublattice_solve", lambda b: solves.append(b.size) or original(b))
    for n in reversed(n_values):
        assert _same_optimum(find_optimal_squeezing(OscillatorConfig(kind, n, coupling)), cold[n]), n
    assert solves == []  # the ascending sweep solved every block the descending one needs


def test_memoized_solve_is_read_only():
    blk = _solve_block("degenerate", 12, 0.5)
    with pytest.raises(ValueError, match="read-only"):
        blk.u[0, 0] = 1.0
    arrays = [name for name, value in vars(blk).items() if isinstance(value, np.ndarray) and name != "w0"]
    assert len(arrays) == 10 and not any(getattr(blk, name).flags.writeable for name in arrays)
    again = _solve_block("degenerate", 12, 2.0)
    assert again.u is blk.u and again.amp == 2.0
    assert np.array_equal(again.w0, 2.0 * blk.u[-1]) and np.array_equal(blk.w0, 0.5 * blk.u[-1])


def test_other_coupling_reuses_the_solves(monkeypatch):
    """The memo holds coupling-1 solves by (kind, charge): a run at coupling 0.7 after one at 1 solves nothing."""
    monkeypatch.setattr(oscillator, "_solve_cache", {})
    find_optimal_squeezing(OscillatorConfig("degenerate", 22.0))
    keys = set(oscillator._solve_cache)
    assert keys and all(kind == "degenerate" for kind, _ in keys)
    solves = []
    original = oscillator._sublattice_solve
    monkeypatch.setattr(oscillator, "_sublattice_solve", lambda b: solves.append(b.size) or original(b))
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
def test_optimum_at_extreme_couplings_matches_coupling_1(kind, coupling, monkeypatch):
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
    passes = []
    original = BlockEvolution._var_x_tau_derivatives

    def counting(self, tau):
        passes[-1] += 1
        return original(self, tau)

    monkeypatch.setattr(BlockEvolution, "_var_x_tau_derivatives", counting)
    n = 22.0
    passes.append(0)
    ref = find_optimal_squeezing(OscillatorConfig(kind, n))
    passes.append(0)
    opt = find_optimal_squeezing(OscillatorConfig(kind, n, coupling))
    assert passes[1] == passes[0]  # the coupling-1 refinement, not bisection (34 passes)
    eps = np.finfo(float).eps
    t_bound = 2e-12
    var_bound = 16.0 * eps * 2.0 * ref.resolution.intensity_y / ref.var_min
    assert type(opt.t_sq) is float
    assert coupling * opt.t_sq == pytest.approx(ref.t_sq, rel=t_bound, abs=0.0)
    assert opt.var_min == pytest.approx(ref.var_min, rel=var_bound, abs=0.0)
    assert opt.resolution.s == pytest.approx(ref.resolution.s, rel=0.5 * var_bound + 2.0 * t_bound, abs=0.0)
