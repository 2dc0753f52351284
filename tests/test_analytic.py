import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import squeezelab as sq
from squeezelab.analytic import (
    BeamSplitterConfig,
    InterferometerConfig,
    SchemeParams,
    beam_splitter_phase_resolution,
    beam_splitter_variance,
    resolution_surface,
    interferometer_phase_resolution,
    interferometer_variance,
    scheme_phase_resolution_approx,
    scheme_phase_resolution_exact,
)


# ---------------------------------------------------------------------------
# beam splitter formulas

def test_variance_no_reflection():
    cfg = BeamSplitterConfig.from_reflectivity(0.0, delta=0.4, psi=-1.0)
    assert beam_splitter_variance(cfg, 1.3, 0.9) == pytest.approx(1.0)


def test_variance_no_squeezing():
    cfg = BeamSplitterConfig.from_reflectivity(0.8, delta=0.4, psi=-1.0)
    for theta in (0.0, 1.0, 3.0):
        assert beam_splitter_variance(cfg, 0.0, theta) == pytest.approx(1.0)


def test_variance_optimal_point():
    cfg = BeamSplitterConfig.from_reflectivity(math.sqrt(0.3))
    want = 1.0 - 0.3 * (1.0 - math.exp(-1.0))
    assert beam_splitter_variance(cfg, 0.5, 0.0) == pytest.approx(want, abs=1e-12)


def test_variance_minimized_at_zero_phase_combination():
    cfg = BeamSplitterConfig.from_reflectivity(math.sqrt(0.5))
    scan = np.linspace(-math.pi, math.pi, 721)
    values = [beam_splitter_variance(cfg, 0.8, c) for c in scan]
    i = int(np.argmin(values))
    res = minimize_scalar(
        lambda c: beam_splitter_variance(cfg, 0.8, c),
        bracket=(scan[i - 1], scan[i], scan[i + 1]),
        method="golden",
        options={"xtol": 1e-10},
    )
    assert abs(res.x) < 1e-6


def test_phase_resolution_coherent_only():
    cfg = BeamSplitterConfig.from_reflectivity(0.0)
    assert beam_splitter_phase_resolution(cfg, 1.0, 2.5).s == 2.5


def test_phase_resolution_squeezed_only():
    cfg = BeamSplitterConfig.from_reflectivity(1.0)
    res = beam_splitter_phase_resolution(cfg, 1.0, 0.0)
    assert res.s == pytest.approx(math.sinh(1.0) * math.e, rel=1e-12)
    assert res.s == pytest.approx(3.194528049465325, rel=1e-12)


def test_lossless_validation():
    with pytest.raises(ValueError):
        BeamSplitterConfig(t1=0.9, r1=0.9, t2=0.5, r2=0.5)
    with pytest.raises(ValueError):
        BeamSplitterConfig.from_reflectivity(1.2)


# ---------------------------------------------------------------------------
# interferometer formulas

def test_interferometer_passes_coherent_straight_through():
    res = interferometer_phase_resolution(math.pi, 1.0, 2.0)
    assert interferometer_variance(math.pi, 1.0) == pytest.approx(1.0)
    assert res.s == pytest.approx(2.0)


def test_interferometer_squeezed_only():
    s = 0.8
    res = interferometer_phase_resolution(0.0, s, 2.0)
    assert res.s == pytest.approx(math.sinh(s) * math.exp(s), rel=1e-12)


def test_mixer_limits_coincide():
    """No-reflection splitter and open interferometer both reduce to |alpha|."""
    for alpha in (1.0, 2.0, 3.0):
        bs = beam_splitter_phase_resolution(BeamSplitterConfig.from_reflectivity(0.0), 0.7, alpha)
        inr = interferometer_phase_resolution(math.pi, 0.7, alpha)
        assert bs.s == alpha == inr.s


def test_interferometer_phi_range():
    with pytest.raises(ValueError):
        InterferometerConfig(phi=-0.1)
    with pytest.raises(ValueError):
        InterferometerConfig(phi=math.pi + 0.1)


def test_mode_matrices_unitary():
    for cfg in (
        BeamSplitterConfig.from_reflectivity(0.6, delta=0.3, psi=-0.7),
        InterferometerConfig(phi=1.1, psi=0.5, global_phase=0.2),
    ):
        m = cfg.mode_matrix()
        assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-12


# ---------------------------------------------------------------------------
# Fock-space cross-checks

def test_beam_splitter_crosscheck_point():
    cfg = BeamSplitterConfig.from_reflectivity(math.sqrt(0.5))
    rep = sq.beam_splitter_crosscheck(cfg, 0.5, 2.0)
    assert rep.max_rel_err < 1e-4


def test_interferometer_crosscheck_point():
    rep = sq.interferometer_crosscheck(InterferometerConfig(phi=math.pi / 2), 0.5, 2.0)
    assert rep.max_rel_err < 1e-4


def test_variance_crosscheck_off_optimum():
    cfg = BeamSplitterConfig.from_reflectivity(math.sqrt(0.3), delta=0.2, psi=0.1)
    ana, fock = sq.beam_splitter_variance_crosscheck(cfg, 0.6, theta=1.3, alpha_mag=1.0)
    assert abs(ana - fock) < 1e-8


@pytest.mark.parametrize("r2_sq", [0.0, 0.5, 1.0])
def test_variance_oracle_agreement_at_strong_squeezing(r2_sq):
    """Eq-level variance agreement holds to 1e-5 out to s = 1.5."""
    cfg = BeamSplitterConfig.from_reflectivity(math.sqrt(r2_sq))
    ana, fock = sq.beam_splitter_variance_crosscheck(cfg, 1.5, theta=0.4, alpha_mag=3.0)
    assert abs(ana - fock) / abs(ana) < 1e-5


# ---------------------------------------------------------------------------
# scheme

def test_scheme_photon_budget():
    params = SchemeParams(1e4, 0.5, BeamSplitterConfig.from_reflectivity(0.1))
    assert params.squeezed_photons == pytest.approx(math.sqrt(5e3))
    assert math.sinh(params.squeeze_parameter) ** 2 == pytest.approx(math.sqrt(5e3), rel=1e-12)
    assert params.coherent_photons == pytest.approx(1e4)


def test_squeeze_parameter_log_form_offset():
    """The log form drops a constant: s_exact - ln(N/2)/4 -> ln 2."""
    for n in (1e6, 1e10, 1e14):
        params = SchemeParams(n, 0.5, BeamSplitterConfig.from_reflectivity(0.1))
        gap = params.squeeze_parameter - 0.25 * math.log(n / 2.0)
        assert gap == pytest.approx(math.log(2.0), abs=10.0 / math.sqrt(n))


def test_scheme_validation():
    mixer = BeamSplitterConfig.from_reflectivity(0.1)
    with pytest.raises(ValueError):
        SchemeParams(0.5, 0.5, mixer)
    with pytest.raises(ValueError):
        SchemeParams(1e3, 0.0, mixer)
    with pytest.raises(ValueError):
        SchemeParams(1e3, 1.5, mixer)


def test_scheme_coherent_only_limit():
    params = SchemeParams(1e5, 0.4, BeamSplitterConfig.from_reflectivity(0.0))
    assert scheme_phase_resolution_exact(params).s == pytest.approx(math.sqrt(2e5 * 0.4), rel=1e-12)


def test_scheme_large_n_small_reflection():
    params = SchemeParams(1e6, 0.5, BeamSplitterConfig.from_reflectivity(0.1))
    exact = scheme_phase_resolution_exact(params).s
    assert exact == pytest.approx(1000.0, rel=0.05)


def test_scheme_squeezed_only_subleading():
    """r2 -> 1 approaches (2N)^{1/2} with a (1/4)(2/N)^{1/2} correction."""
    for n in (1e4, 1e6, 1e8):
        params = SchemeParams(n, 0.5, BeamSplitterConfig.from_reflectivity(1.0))
        exact = scheme_phase_resolution_exact(params).s
        corrected = math.sqrt(2.0 * n) * (1.0 + 0.25 * math.sqrt(2.0 / n))
        assert exact == pytest.approx(corrected, rel=2e-4)
    # leading order alone is off by exactly that correction at modest N
    params = SchemeParams(1e4, 0.5, BeamSplitterConfig.from_reflectivity(1.0))
    ratio = scheme_phase_resolution_exact(params).s / math.sqrt(2e4)
    assert ratio == pytest.approx(1.0 + 0.25 * math.sqrt(2e-4), rel=1e-4)


def test_scheme_approx_tracks_exact():
    for mixer in (
        BeamSplitterConfig.from_reflectivity(0.2),
        InterferometerConfig(phi=math.pi / 2),
    ):
        params = SchemeParams(1e5, 0.5, mixer)
        approx = scheme_phase_resolution_approx(params)
        assert approx.rel_deviation < 1e-3
        assert approx.limit == pytest.approx(math.sqrt(1e5), rel=1e-12)


def test_scheme_exact_equals_limit_when_lossless_coherent():
    params = SchemeParams(1e4, 1.0, BeamSplitterConfig.from_reflectivity(0.0))
    approx = scheme_phase_resolution_approx(params)
    exact = scheme_phase_resolution_exact(params).s
    assert exact == pytest.approx(math.sqrt(2e4), rel=1e-12)
    assert approx.value == pytest.approx(exact, rel=1e-12)
    assert approx.limit == pytest.approx(exact, rel=1e-12)


# ---------------------------------------------------------------------------
# surface

def test_surface_single_point_reduces_to_exact():
    rows = resolution_surface([1e4], [0.3], 0.5, "bs")
    assert len(rows) == 1
    params = SchemeParams(1e4, 0.5, BeamSplitterConfig.from_reflectivity(0.3))
    assert rows[0][2] == pytest.approx(scheme_phase_resolution_exact(params).s, rel=1e-12)


def test_surface_coherent_column():
    n_values = np.geomspace(1e3, 1e6, 4)
    rows = resolution_surface(n_values, [0.0], 0.5, "bs")
    for (n, _, s_exact, _, _) in rows:
        assert s_exact == pytest.approx(math.sqrt(2.0 * n * 0.5), rel=1e-12)


def test_surface_monotonic_in_n():
    n_values = np.geomspace(1e3, 1e7, 9)
    for variant, mix in (("bs", 0.4), ("in", 1.2)):
        rows = resolution_surface(n_values, [mix], 0.5, variant)
        values = [r[2] for r in rows]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_surface_row_smooth_between_endpoints():
    """S(r2) interpolates the two closed-form endpoints without jumps.

    The curve is smooth but stiff near r2 = 1 (the squeezed noise floor
    e^{-2s} sets a boundary layer in 1 - r2²), so the step check uses a
    grid graded in that variable.
    """
    n = 1e5
    u = np.concatenate([np.geomspace(1e-7, 1.0, 120)[::-1], [0.0]])  # u = 1 - r2²
    r2_values = np.sqrt(1.0 - u)
    rows = resolution_surface([n], r2_values, 0.5, "bs")
    values = np.array([r[2] for r in rows])
    params_open = SchemeParams(n, 0.5, BeamSplitterConfig.from_reflectivity(0.0))
    params_closed = SchemeParams(n, 0.5, BeamSplitterConfig.from_reflectivity(1.0))
    assert values[0] == pytest.approx(scheme_phase_resolution_exact(params_open).s, rel=1e-12)
    assert values[-1] == pytest.approx(scheme_phase_resolution_exact(params_closed).s, rel=1e-12)
    assert np.all(np.isfinite(values))
    lo, hi = sorted((values[0], values[-1]))
    assert np.all(values >= lo - 1e-9) and np.all(values <= hi + 1e-9)
    rel_steps = np.abs(np.diff(values)) / values[:-1]
    assert np.max(rel_steps) < 0.02


def test_surface_rejects_unknown_variant():
    with pytest.raises(ValueError):
        resolution_surface([1e3], [0.1], 0.5, "xx")
