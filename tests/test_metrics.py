import math

import numpy as np
import pytest

from squeezelab.metrics import (
    SpectraInput,
    fit_power_law,
    phase_resolution,
    spectral_phase_resolution,
)


def test_vacuum_baseline():
    assert phase_resolution(1.0, 1.0).s == 1.0


@pytest.mark.parametrize("n", [4.0, 9.0, 100.0])
def test_coherent_baseline(n):
    assert phase_resolution(n, 1.0).s == pytest.approx(math.sqrt(n), rel=1e-12)


@pytest.mark.parametrize("n", [4.0, 25.0, 1e6])
def test_squeezed_scaling_identity(n):
    """[N^{1/2} / N^{-1/2}]^{1/2} = N^{1/2}."""
    res = phase_resolution(math.sqrt(n), 1.0 / math.sqrt(n))
    assert res.s == pytest.approx(math.sqrt(n), rel=1e-12)


@pytest.mark.parametrize("c", [0.1, 2.0, 1e6])
def test_scale_covariance(c):
    base = phase_resolution(3.0, 0.5).s
    assert phase_resolution(c * 3.0, c * 0.5).s == pytest.approx(base, rel=1e-12)


def test_resolution_triple_consistency():
    res = phase_resolution(7.3, 0.21)
    assert res.s**2 * res.var_x == pytest.approx(res.intensity_y, rel=1e-12)


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        phase_resolution(1.0, 0.0)
    with pytest.raises(ValueError):
        phase_resolution(1.0, -0.5)
    with pytest.raises(ValueError):
        phase_resolution(-1.0, 1.0)


# ---------------------------------------------------------------------------
# spectra

def test_spectral_ratio_unity():
    omega = np.linspace(-3, 3, 11)
    sp = SpectraInput(omega, np.full(11, 2.0), np.full(11, 2.0))
    assert np.allclose(spectral_phase_resolution(sp), 1.0)


def test_spectral_ratio_arithmetic():
    sp = SpectraInput(np.array([0.0]), np.array([1.0]), np.array([4.0]))
    assert spectral_phase_resolution(sp)[0] == pytest.approx(2.0)


@pytest.mark.parametrize("n", [10.0, 1e4])
def test_spectral_lorentzian_pair(n):
    """W/V = N at line center forces a sqrt(N) peak resolution."""
    omega = np.linspace(-5, 5, 201)
    v = 1.0 / (1.0 + omega**2)
    w = v * (1.0 + (n - 1.0) / (1.0 + omega**2))
    sp = SpectraInput(omega, v, w)
    s = spectral_phase_resolution(sp)
    assert s[100] == pytest.approx(math.sqrt(n), rel=1e-12)


def test_spectral_reordering_commutes():
    rng = np.random.default_rng(3)
    omega = np.linspace(0, 1, 20)
    v = 1.0 + rng.random(20)
    w = 1.0 + rng.random(20)
    perm = rng.permutation(20)
    direct = spectral_phase_resolution(SpectraInput(omega, v, w))[perm]
    permuted = spectral_phase_resolution(SpectraInput(omega[perm], v[perm], w[perm]))
    assert np.allclose(direct, permuted)


def test_spectra_validation():
    with pytest.raises(ValueError):
        SpectraInput(np.arange(3.0), np.array([1.0, 0.0, 1.0]), np.ones(3))
    with pytest.raises(ValueError):
        SpectraInput(np.arange(3.0), np.ones(2), np.ones(3))


# ---------------------------------------------------------------------------
# power-law fit

@pytest.mark.parametrize("exponent", [-1.0, -0.5, 0.25, 0.5, 1.0])
def test_fit_recovers_planted_exponent(exponent):
    x = np.geomspace(1.0, 1e4, 12)
    fit = fit_power_law(x, 3.7 * x**exponent)
    assert fit.exponent == pytest.approx(exponent, abs=1e-6)
    assert fit.prefactor == pytest.approx(3.7, rel=1e-6)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.n_points == 12


def test_fit_exact_square_root_points():
    fit = fit_power_law([1.0, 4.0, 16.0], [1.0, 2.0, 4.0])
    assert fit.exponent == pytest.approx(0.5, abs=1e-12)


def test_fit_constant_data():
    fit = fit_power_law([1.0, 4.0, 16.0], [2.0, 2.0, 2.0])
    assert fit.exponent == pytest.approx(0.0, abs=1e-12)


def test_fit_rejects_bad_input():
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, -3.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        fit_power_law([1.0, 2.0, 3.0], [1.0, 0.0, 3.0])
