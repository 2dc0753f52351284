"""Acceptance suite: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion including measured errors and runtimes.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import minimize, minimize_scalar

import squeezelab as sq
from squeezelab.analytic import (
    BeamSplitterConfig,
    InterferometerConfig,
    SchemeParams,
    beam_splitter_variance,
    scheme_phase_resolution_approx,
    scheme_phase_resolution_exact,
)
from squeezelab.metrics import SpectraInput, fit_power_law, phase_resolution, spectral_phase_resolution
from squeezelab.oscillator import (
    BlockEvolution,
    OscillatorConfig,
    blocks_to_dense,
    dense_evolve,
    find_optimal_squeezing,
    hamiltonian_block,
)

SWEEP_N_VALUES = (4.0, 8.0, 16.0, 32.0, 64.0)


def report(number: int, name: str, ok: bool, detail: str):
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def oscillator_sweeps():
    """Optimal-squeezing sweeps for both oscillator kinds (criteria 4 and 6)."""
    start = time.time()
    data = {}
    for kind in ("degenerate", "nondegenerate"):
        data[kind] = [find_optimal_squeezing(OscillatorConfig(kind, n)) for n in SWEEP_N_VALUES]
    data["runtime"] = time.time() - start
    return data


def test_criterion_1_coherent_baseline():
    start = time.time()
    worst = 0.0
    for n in (1.0, 4.0, 9.0, 25.0):
        res = sq.phase_resolution_of_mode(sq.coherent_state(math.sqrt(n)))
        worst = max(worst, abs(res.s - math.sqrt(n)))
    runtime = time.time() - start
    report(
        1,
        "coherent baseline S = N^(1/2)",
        worst < 1e-4 and runtime < 1.0,
        f"max |S - sqrt(N)| = {worst:.2e} (tol 1e-4), runtime {runtime:.2f}s (budget 1s)",
    )


def test_criterion_2_beam_splitter_oracle_equivalence():
    start = time.time()
    worst_full = 0.0
    for r2_sq in (0.0, 0.25, 0.5, 0.75, 1.0):
        cfg = BeamSplitterConfig.from_reflectivity(math.sqrt(r2_sq), delta=0.3, psi=-0.1)
        for s in (0.3, 0.8, 1.3):
            for alpha in (0.5, 1.0, 1.5, 2.0, 3.0):
                rep = sq.beam_splitter_crosscheck(cfg, s, alpha)
                worst_full = max(worst_full, rep.max_rel_err)
    worst_var = 0.0
    for r2_sq in (0.0, 0.25, 0.5, 0.75, 1.0):
        cfg = BeamSplitterConfig.from_reflectivity(math.sqrt(r2_sq))
        for s in (0.3, 1.3):
            ana, fock = sq.beam_splitter_variance_crosscheck(cfg, s, theta=0.7, alpha_mag=1.0)
            worst_var = max(worst_var, abs(ana - fock) / abs(ana))
    runtime = time.time() - start
    worst = max(worst_full, worst_var)
    report(
        2,
        "beam-splitter formulas vs Fock oracle (5x5x3 grid)",
        worst < 1e-4 and runtime < 30.0,
        f"max rel err {worst:.2e} (tol 1e-4), runtime {runtime:.1f}s (budget 30s)",
    )


def test_criterion_3_optimal_phase_law():
    s, r2 = 0.8, math.sqrt(0.5)

    def variance_of_phases(v):
        cfg = BeamSplitterConfig.from_reflectivity(r2, delta=v[0], psi=v[1])
        return beam_splitter_variance(cfg, s, v[2])

    res = minimize(
        variance_of_phases,
        x0=[0.4, -0.3, 0.9],
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-15, "maxiter": 20000},
    )
    combo = (2.0 * res.x[0] + 2.0 * res.x[1] + res.x[2]) % (2.0 * math.pi)
    joint_residual = min(combo, 2.0 * math.pi - combo)

    cfg0 = BeamSplitterConfig.from_reflectivity(r2)
    scan = np.linspace(-math.pi, math.pi, 721)
    values = [beam_splitter_variance(cfg0, s, c) for c in scan]
    i = int(np.argmin(values))
    scalar = minimize_scalar(
        lambda c: beam_splitter_variance(cfg0, s, c),
        bracket=(scan[i - 1], scan[i], scan[i + 1]),
        method="golden",
        options={"xtol": 1e-12},
    )
    scalar_residual = abs(scalar.x)
    ok = joint_residual < 1e-6 and scalar_residual < 1e-6
    report(
        3,
        "variance minimum at 2*delta + 2*psi + theta = 0 (mod 2pi)",
        ok,
        f"joint-minimization residual {joint_residual:.2e}, scalar {scalar_residual:.2e} rad (tol 1e-6)",
    )


def test_criterion_4_oscillator_scaling(oscillator_sweeps):
    details = []
    ok = oscillator_sweeps["runtime"] < 120.0
    for kind in ("degenerate", "nondegenerate"):
        opts = oscillator_sweeps[kind]
        fit_v = fit_power_law(SWEEP_N_VALUES, [o.var_min for o in opts])
        fit_s = fit_power_law(SWEEP_N_VALUES, [o.resolution.s for o in opts])
        ok = ok and abs(fit_v.exponent + 0.5) < 0.15 and abs(fit_s.exponent - 0.5) < 0.15
        details.append(f"{kind}: var {fit_v.exponent:+.3f}, S {fit_s.exponent:+.3f}")
    report(
        4,
        "squeezing scales as N^(-1/2), resolution as N^(+1/2)",
        ok,
        "; ".join(details) + f" (tol +-0.15), runtime {oscillator_sweeps['runtime']:.0f}s (budget 120s)",
    )


def test_criterion_5_block_dense_equivalence():
    start = time.time()
    worst = 0.0
    times = np.array([0.0, 0.35, 0.8, 1.4])
    for kind in ("degenerate", "nondegenerate"):
        for n in (4.0, 6.0):
            cfg = OscillatorConfig(kind, n)
            dims, states = dense_evolve(cfg, times)
            ev = BlockEvolution(cfg)
            for t, dense in zip(times, states):
                scattered = blocks_to_dense(cfg, ev.propagate(float(t)), dims)
                worst = max(worst, float(np.max(np.abs(scattered - dense))))
    runtime = time.time() - start
    report(
        5,
        "charge-block propagation matches dense propagation (N <= 6)",
        worst < 1e-8 and runtime < 30.0,
        f"max per-amplitude diff {worst:.2e} (tol 1e-8), runtime {runtime:.1f}s (budget 30s)",
    )


def test_criterion_6_conservation_suite(oscillator_sweeps):
    worst_norm = worst_charge = worst_energy = 0.0
    for kind in ("degenerate", "nondegenerate"):
        for n, opt in zip(SWEEP_N_VALUES, oscillator_sweeps[kind]):
            cfg = OscillatorConfig(kind, n)
            ev = BlockEvolution(cfg)
            # 200 points over the optimum's final window, not its coarse bracketing scan
            result = ev.observables(np.linspace(0.0, opt.evolution.times[-1], 200))
            worst_norm = max(worst_norm, float(np.max(np.abs(result.norm - 1.0))))
            charge_drift = float(np.max(np.abs(result.charge - result.charge[0]))) / result.charge[0]
            worst_charge = max(worst_charge, charge_drift)
            # <H> is 0 in every block at every time; <H²> = sum_q ||H_q v_q(t)||² is the
            # conserved energy moment, and energy_scale()² is its value at t = 0
            scale2 = ev.energy_scale() ** 2
            for t in (opt.t_sq, float(result.times[-1])):
                h2 = sum(
                    float(np.linalg.norm(hamiltonian_block(kind, q, cfg.coupling) @ v) ** 2)
                    for q, v in ev.propagate(t).items()
                )
                worst_energy = max(worst_energy, abs(h2 - scale2) / scale2)
    worst = max(worst_norm, worst_charge, worst_energy)
    report(
        6,
        "norm, energy, and charge conserved along every trajectory",
        worst < 1e-9,
        f"worst drift: norm {worst_norm:.1e}, charge {worst_charge:.1e}, <H²> {worst_energy:.1e} (tol 1e-9)",
    )


def test_criterion_7_scheme_asymptotics():
    start = time.time()
    worst_dev = 0.0
    for n in (1e4, 1e6):
        for r2_sq in (0.01, 0.05):
            params = SchemeParams(n, 0.5, BeamSplitterConfig.from_reflectivity(math.sqrt(r2_sq)))
            exact = scheme_phase_resolution_exact(params).s
            limit = scheme_phase_resolution_approx(params).limit
            worst_dev = max(worst_dev, abs(exact - limit) / exact)
        for dphi in (0.0, 0.1, -0.1):
            params = SchemeParams(n, 0.5, InterferometerConfig(phi=math.pi / 2 + dphi))
            exact = scheme_phase_resolution_exact(params).s
            limit = scheme_phase_resolution_approx(params).limit
            worst_dev = max(worst_dev, abs(exact - limit) / exact)

    n_grid = np.geomspace(1e3, 1e7, 9)
    exponents = []
    for r2_sq in (0.2, 0.5, 0.9):
        mixer = BeamSplitterConfig.from_reflectivity(math.sqrt(r2_sq))
        values = [scheme_phase_resolution_exact(SchemeParams(n, 0.5, mixer)).s for n in n_grid]
        exponents.append(fit_power_law(n_grid, values).exponent)
    for phi in (1.0, math.pi / 2, 2.0):
        mixer = InterferometerConfig(phi=phi)
        values = [scheme_phase_resolution_exact(SchemeParams(n, 0.5, mixer)).s for n in n_grid]
        exponents.append(fit_power_law(n_grid, values).exponent)
    worst_exp = max(abs(e - 0.5) for e in exponents)
    runtime = time.time() - start
    ok = worst_dev < 0.05 and worst_exp < 0.01 and runtime < 10.0
    report(
        7,
        "scheme: asymptotics within 5%, exact exponent 0.500 +- 0.01",
        ok,
        f"max approx deviation {worst_dev:.2e}, max |exponent-0.5| = {worst_exp:.4f}, "
        f"runtime {runtime:.1f}s (budget 10s)",
    )


def test_criterion_8_quadrature_only_variant():
    """Near-threshold critical slowing makes the variance-based variant read N^(3/4).

    Near the oscillation threshold the unsqueezed-quadrature variance grows
    like N rather than N^(1/2): critical slowing-down builds a time average
    into it.  Put in place of the intensity, it over-reports S as N^(3/4).
    """
    start = time.time()
    omega = np.linspace(-4.0, 4.0, 161)
    n_grid = np.geomspace(1e2, 1e6, 9)
    s_peak = []
    for n in n_grid:
        squeezed_floor = 1.0 / math.sqrt(n)
        v = squeezed_floor + (1.0 - squeezed_floor) * omega**2 / (1.0 + omega**2)
        width = 1.0 / math.sqrt(n)  # critically slowed unsqueezed fluctuations
        w = 1.0 + (n - 1.0) / (1.0 + (omega / width) ** 2)
        spectra = SpectraInput(omega, v, w)
        ratio = spectral_phase_resolution(spectra)
        center = int(np.argmin(np.abs(omega)))
        res = phase_resolution(w[center], v[center])  # the unsqueezed variance in place of the intensity
        assert res.s == pytest.approx(ratio[center], rel=1e-12)
        s_peak.append(res.s)
    fit = fit_power_law(n_grid, s_peak)
    runtime = time.time() - start
    ok = abs(fit.exponent - 0.75) < 0.02 and runtime < 5.0
    report(
        8,
        "unsqueezed-variance variant scales as N^(3/4)",
        ok,
        f"fitted exponent {fit.exponent:.4f} (target 0.75 +- 0.02), runtime {runtime:.1f}s (budget 5s)",
    )


def test_criterion_9_spectral_ratio_properties():
    """Driven-cavity output spectra are out of scope (they require the
    companion non-equilibrium threshold theory); the spectral ratio itself
    is exercised on its defining identities instead."""
    omega = np.linspace(-2.0, 2.0, 41)
    flat = SpectraInput(omega, np.full_like(omega, 3.0), np.full_like(omega, 3.0))
    ok = bool(np.allclose(spectral_phase_resolution(flat), 1.0))
    point = SpectraInput(np.array([0.0]), np.array([1.0]), np.array([4.0]))
    ok = ok and spectral_phase_resolution(point)[0] == pytest.approx(2.0)
    for n in (16.0, 1e4):
        v = 1.0 / (1.0 + omega**2)
        w = v * (1.0 + (n - 1.0) / (1.0 + omega**2))
        s = spectral_phase_resolution(SpectraInput(omega, v, w))
        center = int(np.argmin(np.abs(omega)))
        ok = ok and s[center] == pytest.approx(math.sqrt(n), rel=1e-12)
    report(
        9,
        "spectral ratio identities (threshold spectra out of scope)",
        ok,
        "ratio = 1 on equal spectra, sqrt(W/V) pointwise, sqrt(N) at a forced peak",
    )
