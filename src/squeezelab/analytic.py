"""Closed-form results for mixing squeezed vacuum with a coherent beam.

Covers the two passive mixing elements (a lossless beam splitter and a
Mach-Zehnder-style interferometer arm), the variance and phase resolution
of their bright output port, and the pump-photon budget of the full
generation scheme: an ``N``-photon coherent pump drives a parametric
oscillator producing a squeezed vacuum of ``(N/2)^{1/2}`` photons, the
unconverted pump is down-converted to ``2 N lambda`` coherent photons at
the sub-harmonic frequency, and the two fields are recombined.

All variances are normalized so vacuum = 1.  The Fock-space counterparts
of every formula here live in :mod:`squeezelab.fock`; the pairing is what
the cross-check layer and the acceptance tests exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .metrics import PhaseResolution, phase_resolution

__all__ = [
    "BeamSplitterConfig",
    "InterferometerConfig",
    "Mixer",
    "beam_splitter_variance",
    "beam_splitter_phase_resolution",
    "interferometer_variance",
    "interferometer_phase_resolution",
    "SchemeParams",
    "SchemeApproximation",
    "scheme_phase_resolution_exact",
    "scheme_phase_resolution_approx",
    "resolution_surface",
]

_LOSSLESS_TOL = 1e-12


@dataclass(frozen=True)
class BeamSplitterConfig:
    """Lossless beam splitter: transmission/reflection pairs plus phases.

    ``delta`` is the overall phase of the element, ``psi`` the relative
    phase between the reflected and transmitted paths.  Losslessness
    requires ``t1² + r1² = 1`` and ``t2² + r2² = 1``; the completed 2x2
    mode map must additionally be unitary, which for real coefficients
    means ``t1 r1 = t2 r2``.
    """

    t1: float
    r1: float
    t2: float
    r2: float
    delta: float = 0.0
    psi: float = 0.0

    def __post_init__(self):
        for name in ("t1", "r1", "t2", "r2"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if abs(self.t1**2 + self.r1**2 - 1.0) > _LOSSLESS_TOL:
            raise ValueError(f"lossless constraint t1²+r1²=1 violated: {self.t1**2 + self.r1**2}")
        if abs(self.t2**2 + self.r2**2 - 1.0) > _LOSSLESS_TOL:
            raise ValueError(f"lossless constraint t2²+r2²=1 violated: {self.t2**2 + self.r2**2}")

    @classmethod
    def from_reflectivity(cls, r2: float, delta: float = 0.0, psi: float = 0.0) -> "BeamSplitterConfig":
        """Symmetric splitter with reflected fraction ``r2²`` on port 2."""
        if not 0.0 <= r2 <= 1.0:
            raise ValueError(f"reflection coefficient {r2} outside [0, 1]")
        t = math.sqrt(max(0.0, 1.0 - r2 * r2))
        return cls(t1=t, r1=r2, t2=t, r2=r2, delta=delta, psi=psi)

    def mode_matrix(self) -> np.ndarray:
        """Unitary 2x2 map from input to output mode operators.

        Row 0 is the bright output ``b1 = e^{i delta}(t1 a1 + e^{i psi} r2 a2)``;
        row 1 is the orthonormal completion of the dark port.
        """
        phase = np.exp(1j * self.delta)
        return phase * np.array(
            [
                [self.t1, np.exp(1j * self.psi) * self.r2],
                [-np.exp(-1j * self.psi) * self.r1, self.t2],
            ],
            dtype=np.complex128,
        )


@dataclass(frozen=True)
class InterferometerConfig:
    """Two-arm interferometer with relative phase ``phi`` in [0, pi].

    ``phi = 0`` passes only the squeezed input to the bright output,
    ``phi = pi`` only the coherent input.  ``psi`` is the arm phase and
    ``global_phase`` an overall phase on both outputs.
    """

    phi: float
    psi: float = 0.0
    global_phase: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.phi <= math.pi:
            raise ValueError(f"relative phase {self.phi} outside [0, pi]")

    def mode_matrix(self) -> np.ndarray:
        half = 0.5 * self.phi
        u1 = -1j * np.exp(-1j * self.psi) * math.sin(half)
        u2 = math.cos(half)
        phase = np.exp(1j * self.global_phase)
        return phase * np.array(
            [[u1, u2], [-np.conj(u2), np.conj(u1)]], dtype=np.complex128
        )


Mixer = BeamSplitterConfig | InterferometerConfig


def beam_splitter_variance(cfg: BeamSplitterConfig, s: float, theta: float = 0.0) -> float:
    """Variance of the cosine quadrature ``b1 + b1†`` of the bright output.

    Inputs are a coherent beam on port 1 and a squeezed vacuum ``(s, theta)``
    on port 2.  The coherent amplitude drops out of the (mean-subtracted)
    variance, which depends on the phases only through ``2 delta + 2 psi
    + theta`` and is minimal when that combination vanishes.
    """
    sh = math.sinh(s)
    ch = math.cosh(s)
    combo = 2.0 * cfg.delta + 2.0 * cfg.psi + theta
    return 1.0 + 2.0 * cfg.r2**2 * sh * (sh - ch * math.cos(combo))


def beam_splitter_phase_resolution(cfg: BeamSplitterConfig, s: float, alpha_mag: float) -> PhaseResolution:
    """Best-case phase resolution of the bright output port.

    Assumes the optimal phase condition ``2 delta + 2 psi + theta = 0``:
    the variance is ``1 - r2²(1 - e^{-2s})``, the intensity is
    ``t1²|alpha|² + r2² sinh²(s)``.
    """
    variance = 1.0 - cfg.r2**2 * (1.0 - math.exp(-2.0 * s))
    intensity = cfg.t1**2 * alpha_mag**2 + cfg.r2**2 * math.sinh(s) ** 2
    return phase_resolution(intensity, variance)


def interferometer_variance(phi: float, s: float) -> float:
    """Squeezed-quadrature variance of the bright interferometer output."""
    return 1.0 - (1.0 - math.exp(-2.0 * s)) * math.cos(0.5 * phi) ** 2


def interferometer_phase_resolution(phi: float, s: float, alpha_mag: float) -> PhaseResolution:
    """Phase resolution of the bright interferometer output.

    Intensity mixes the coherent and squeezed photon numbers with
    ``sin²(phi/2)`` / ``cos²(phi/2)`` weights.
    """
    c2 = math.cos(0.5 * phi) ** 2
    s2 = math.sin(0.5 * phi) ** 2
    intensity = alpha_mag**2 * s2 + math.sinh(s) ** 2 * c2
    return phase_resolution(intensity, interferometer_variance(phi, s))


# ---------------------------------------------------------------------------
# the pump-budget scheme

@dataclass(frozen=True)
class SchemeParams:
    """Photon budget of the squeezed-coherent generation scheme.

    ``pump_photons`` (N) feed the parametric oscillator; the squeezed
    vacuum it emits carries ``(N/2)^{1/2}`` photons, and the coherent
    remainder is down-converted with efficiency ``efficiency`` (lambda)
    into ``2 N lambda`` sub-harmonic photons.  ``mixer`` selects and
    parameterizes the recombining element.
    """

    pump_photons: float
    efficiency: float
    mixer: Mixer

    def __post_init__(self):
        if self.pump_photons < 1.0:
            raise ValueError(f"pump photon number must be >= 1, got {self.pump_photons}")
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError(f"down-conversion efficiency must be in (0, 1], got {self.efficiency}")

    @property
    def squeezed_photons(self) -> float:
        return math.sqrt(self.pump_photons / 2.0)

    @property
    def squeeze_parameter(self) -> float:
        """Exact inversion of sinh²(s) = (N/2)^{1/2}."""
        return math.asinh((self.pump_photons / 2.0) ** 0.25)

    @property
    def coherent_photons(self) -> float:
        return 2.0 * self.pump_photons * self.efficiency


def scheme_phase_resolution_exact(params: SchemeParams) -> PhaseResolution:
    """Exact scheme output: the mixing formulas with the scheme's photon budget.

    Substitutes ``|alpha|² = 2 N lambda`` and the exact squeeze parameter
    into the optimal-phase beam-splitter or interferometer result; no
    large-N approximation is made.
    """
    s = params.squeeze_parameter
    alpha = math.sqrt(params.coherent_photons)
    if isinstance(params.mixer, BeamSplitterConfig):
        return beam_splitter_phase_resolution(params.mixer, s, alpha)
    return interferometer_phase_resolution(params.mixer.phi, s, alpha)


@dataclass(frozen=True)
class SchemeApproximation:
    """Large-N evaluation of the scheme plus its deviation from exact.

    ``value`` keeps the sub-leading ``N^{-1/2}/sqrt(8)`` mixing terms
    (the ``e^{-2s}`` tail of the squeezed noise); ``limit`` is the
    small-mixing limit ``sqrt(2 N lambda)``.  The full prefactor belongs
    inside the square root: ``S = [2N (...)]^{1/2}``, as the coherent-only
    limit fixes.
    """

    value: float
    limit: float
    rel_deviation: float


def scheme_phase_resolution_approx(params: SchemeParams) -> SchemeApproximation:
    """Large-N asymptotic scheme output (intended for N >= 1e3).

    For the beam splitter (with ``t1² = 1 - r2²``)::

        S = [2N (lambda (1-r2²) + r2² x) / (1 - r2² + r2² x)]^{1/2}

    and for the interferometer::

        S = [2N (sqrt(8) lambda tan²(phi/2) + N^{-1/2})
                / (sqrt(8) tan²(phi/2) + N^{-1/2})]^{1/2}

    where ``x = N^{-1/2}/sqrt(8)`` approximates ``e^{-2s}``.
    """
    n = params.pump_photons
    lam = params.efficiency
    x = 1.0 / (math.sqrt(n) * math.sqrt(8.0))
    if isinstance(params.mixer, BeamSplitterConfig):
        r2sq = params.mixer.r2**2
        ratio = (lam * (1.0 - r2sq) + r2sq * x) / ((1.0 - r2sq) + r2sq * x)
    else:
        phi = params.mixer.phi
        if phi >= math.pi - 1e-12:
            ratio = lam  # coherent-only arm
        else:
            t2 = math.tan(0.5 * phi) ** 2
            root8 = math.sqrt(8.0)
            ratio = (root8 * lam * t2 + 1.0 / math.sqrt(n)) / (root8 * t2 + 1.0 / math.sqrt(n))
    value = math.sqrt(2.0 * n * ratio)
    limit = math.sqrt(2.0 * n * lam)
    exact = scheme_phase_resolution_exact(params).s
    return SchemeApproximation(value, limit, abs(value - exact) / exact)


def resolution_surface(n_values, mix_values, efficiency: float, variant: str = "bs"):
    """Phase-resolution surface over pump photon number and mixing setting.

    Returns a list of ``(N, r2_or_phi, s_exact, s_approx, rel_dev)`` rows,
    row-major over ``n_values`` then ``mix_values``.  ``variant`` is
    ``"bs"`` (mix values are reflection coefficients ``r2``) or ``"in"``
    (mix values are interferometer phases ``phi``).
    """
    if variant not in ("bs", "in"):
        raise ValueError(f"variant must be 'bs' or 'in', got {variant!r}")
    rows = []
    for n in n_values:
        for m in mix_values:
            if variant == "bs":
                mixer: Mixer = BeamSplitterConfig.from_reflectivity(float(m))
            else:
                mixer = InterferometerConfig(phi=float(m))
            params = SchemeParams(float(n), efficiency, mixer)
            exact = scheme_phase_resolution_exact(params)
            approx = scheme_phase_resolution_approx(params)
            rows.append((float(n), float(m), exact.s, approx.value, approx.rel_deviation))
    return rows
