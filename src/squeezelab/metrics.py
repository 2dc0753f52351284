"""Phase-resolution metric, spectral ratio, and power-law fits.

The phase resolution ``S = sqrt(intensity_Y / var_X)`` measures how well
the phase of an optical state is defined: the distance of the state from
the phase-space origin against the noise in the orthogonal direction.
A coherent state of ``N`` photons gives ``S = sqrt(N)``; a state squeezed
to variance ``N^{-1/2}`` with intensity ``N^{1/2}`` gives the same
``sqrt(N)`` scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhaseResolution",
    "phase_resolution",
    "SpectraInput",
    "spectral_phase_resolution",
    "PowerLawFit",
    "fit_power_law",
]

@dataclass(frozen=True)
class PhaseResolution:
    """The triple (intensity_Y, var_X, S) for one state or configuration."""

    intensity_y: float
    var_x: float
    s: float


def phase_resolution(intensity_y: float, var_x: float) -> PhaseResolution:
    """Compute ``S = sqrt(intensity_y / var_x)``, as ``sqrt(intensity_y) / sqrt(var_x)``.

    ``intensity_y`` is the distance-quadrature intensity ``<Y†Y>``.  The
    roots come first, so ``S`` is finite wherever it is representable,
    even where the ratio itself would overflow.
    """
    if var_x <= 0.0:
        raise ValueError(f"variance must be positive, got {var_x}")
    if intensity_y < 0.0:
        raise ValueError(f"intensity must be >= 0, got {intensity_y}")
    return PhaseResolution(float(intensity_y), float(var_x), float(np.sqrt(intensity_y) / np.sqrt(var_x)))


@dataclass(frozen=True)
class SpectraInput:
    """Output spectra of the squeezed (V) and distance (W) quadratures."""

    omega: np.ndarray
    v_out: np.ndarray
    w_out: np.ndarray

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        v = np.asarray(self.v_out, dtype=float)
        w = np.asarray(self.w_out, dtype=float)
        if not (omega.shape == v.shape == w.shape):
            raise ValueError("omega, v_out, w_out must have equal lengths")
        if np.any(v <= 0.0):
            raise ValueError("squeezed-quadrature spectrum must be strictly positive")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "v_out", v)
        object.__setattr__(self, "w_out", w)


def spectral_phase_resolution(spectra: SpectraInput) -> np.ndarray:
    """Pointwise phase resolution ``sqrt(W(omega) / V(omega))``."""
    return np.sqrt(spectra.w_out / spectra.v_out)


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of ``value = prefactor * x**exponent``."""

    exponent: float
    prefactor: float
    r_squared: float
    n_points: int


def fit_power_law(x, y) -> PowerLawFit:
    """Unweighted log-log least squares.

    Requires at least 3 strictly positive points on both axes (``ValueError`` names the first that is not)
    and x values that differ.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be 1-d arrays of equal length")
    if x.size < 3:
        raise ValueError(f"need at least 3 points, got {x.size}")
    bad = np.flatnonzero(~((x > 0.0) & (y > 0.0)))
    if bad.size:
        i = bad[0]
        got = f"y = {y[i]} at x = {x[i]}" if x[i] > 0.0 else f"x = {x[i]}"
        raise ValueError(f"power-law fit requires strictly positive data, got {got}")
    lx = np.log(x)
    ly = np.log(y)
    if np.ptp(lx) == 0.0:
        raise ValueError(f"power-law fit requires x values that differ, got only x = {x[0]}")
    slope, intercept = np.polyfit(lx, ly, 1)
    residuals = ly - (slope * lx + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(float(slope), float(np.exp(intercept)), r_squared, int(x.size))
