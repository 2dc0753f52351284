"""Closed-form results for mixing squeezed vacuum with a coherent beam.

Covers the two passive mixing elements (a lossless beam splitter and a
Mach-Zehnder-style interferometer arm), the variance and phase resolution
of their bright output port, and the pump-photon budget of the full
generation scheme: an ``N``-photon coherent pump drives a parametric
oscillator producing a squeezed vacuum of ``(N/2)^{1/2}`` photons, the
unconverted pump is down-converted to ``2 N lambda`` coherent photons at
the sub-harmonic frequency, and the two fields are recombined.

Each formula is written once, as a private numpy expression whose
arguments broadcast.  The public scalar functions and configs evaluate
those expressions at one point; :func:`resolution_surface` evaluates them
on a whole ``(N, mixing)`` grid in one broadcast, with the same checks on
its inputs as the configs.

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
    "beam_splitter_intensity",
    "beam_splitter_phase_resolution",
    "interferometer_variance",
    "interferometer_intensity",
    "interferometer_phase_resolution",
    "SchemeParams",
    "SchemeApproximation",
    "scheme_phase_resolution_exact",
    "scheme_phase_resolution_approx",
    "resolution_surface",
]

_LOSSLESS_TOL = 1e-12

#: interferometer phases this close to pi pass only the coherent input
_COHERENT_ONLY_TOL = 1e-12


# ---------------------------------------------------------------------------
# input checks, shared by the scalar configs and the surface

def _require(ok, values, message: str):
    """Raise ``ValueError(message.format(v))`` for the first ``v`` of ``values`` where ``ok`` is false."""
    if ok is True or ok is np.True_:  # one scalar that passed: skip the array path, configs are built often
        return
    ok = np.asarray(ok)
    if not ok.all():
        bad = np.broadcast_to(values, ok.shape)[~ok]
        raise ValueError(message.format(bad.flat[0].item()))


def _finite(x):
    """Elementwise ``isfinite`` that stays a plain bool on a Python float."""
    return abs(x) < math.inf


def _check_finite(cfg, *names: str):
    for name in names:
        value = getattr(cfg, name)
        _require(_finite(value), value, f"{name} must be finite, got {{}}")


def _check_reflection(r2):
    _require((0.0 <= r2) & (r2 <= 1.0), r2, "reflection coefficient {} outside [0, 1]")


def _check_phase(phi):
    _require((0.0 <= phi) & (phi <= math.pi), phi, "relative phase {} outside [0, pi]")


def _check_budget(n, lam):
    _require(_finite(n), n, "pump_photons must be finite, got {}")
    _require(_finite(lam), lam, "efficiency must be finite, got {}")
    _require(n >= 1.0, n, "pump photon number must be >= 1, got {}")
    _require((0.0 < lam) & (lam <= 1.0), lam, "down-conversion efficiency must be in (0, 1], got {}")


# ---------------------------------------------------------------------------
# the closed-form expressions; every argument broadcasts

def _transmission(r2):
    """``t = (1 - r2²)^{1/2}`` of a symmetric lossless splitter."""
    return np.sqrt(np.maximum(0.0, 1.0 - r2 * r2))


def _bs_intensity(t1, r2, s, alpha_mag):
    return np.square(t1 * alpha_mag) + np.square(r2 * np.sinh(s))


def _bs_optimal_variance(r2, s):
    """``1 - r2²(1 - e^{-2s})`` as a sum of non-negative terms, so it keeps full relative accuracy when small."""
    return (1.0 - r2) * (1.0 + r2) + np.square(r2) * np.exp(-2.0 * s)


def _in_intensity(phi, s, alpha_mag):
    return np.square(alpha_mag * np.sin(0.5 * phi)) + np.square(np.sinh(s) * np.cos(0.5 * phi))


def _in_variance(phi, s):
    """``1 - (1 - e^{-2s}) cos²(phi/2)``, written like :func:`_bs_optimal_variance` without cancellation."""
    return np.square(np.sin(0.5 * phi)) + np.exp(-2.0 * s) * np.square(np.cos(0.5 * phi))


def _squeeze_parameter(n):
    """Exact inversion of sinh²(s) = (N/2)^{1/2}."""
    # two correctly rounded square roots give the same bits for a float and an array; a 0.25 power need not
    return np.arcsinh(np.sqrt(np.sqrt(n / 2.0)))


def _coherent_photons(n, lam):
    return 2.0 * n * lam


def _scheme_port(variant: str, mix, n, lam):
    """``(intensity, variance)`` of the scheme's optimal-phase bright port.

    ``mix`` is ``(t1, r2)`` for the beam splitter (``variant == "bs"``) and
    ``phi`` for the interferometer.
    """
    s = _squeeze_parameter(n)
    alpha = np.sqrt(_coherent_photons(n, lam))
    if variant == "bs":
        t1, r2 = mix
        return _bs_intensity(t1, r2, s, alpha), _bs_optimal_variance(r2, s)
    return _in_intensity(mix, s, alpha), _in_variance(mix, s)


def _scheme_approx(variant: str, mix, n, lam, s_exact):
    """Large-N scheme value and its relative deviation from ``s_exact``; ``mix`` as in :func:`_scheme_port`."""
    if variant == "bs":
        r2sq = np.square(mix[1])
        x = 1.0 / (np.sqrt(n) * np.sqrt(8.0))
        ratio = (lam * (1.0 - r2sq) + r2sq * x) / ((1.0 - r2sq) + r2sq * x)
    else:
        # tan(phi/2)² stays finite up to the double nearest pi (about 2.7e32)
        coherent = mix >= math.pi - _COHERENT_ONLY_TOL
        t2 = np.square(np.tan(0.5 * mix))
        root8, inv_root_n = np.sqrt(8.0), 1.0 / np.sqrt(n)
        ratio = np.where(coherent, lam, (root8 * lam * t2 + inv_root_n) / (root8 * t2 + inv_root_n))
    value = np.sqrt(2.0 * n * ratio)
    return value, np.abs(value - s_exact) / s_exact


# ---------------------------------------------------------------------------
# the mixing elements

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
        _check_finite(self, "delta", "psi")
        if abs(self.t1**2 + self.r1**2 - 1.0) > _LOSSLESS_TOL:
            raise ValueError(f"lossless constraint t1²+r1²=1 violated: {self.t1**2 + self.r1**2}")
        if abs(self.t2**2 + self.r2**2 - 1.0) > _LOSSLESS_TOL:
            raise ValueError(f"lossless constraint t2²+r2²=1 violated: {self.t2**2 + self.r2**2}")

    @classmethod
    def from_reflectivity(cls, r2: float, delta: float = 0.0, psi: float = 0.0) -> "BeamSplitterConfig":
        """Symmetric splitter with reflected fraction ``r2²`` on port 2."""
        _check_reflection(r2)
        t = float(_transmission(r2))
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
        _check_phase(self.phi)
        _check_finite(self, "psi", "global_phase")

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
    + theta`` and is minimal when that combination vanishes.  With
    ``c = 2 delta + 2 psi + theta`` it is
    ``1 - r2² + r2² (e^{-2s} cos²(c/2) + e^{2s} sin²(c/2))``, a sum of
    non-negative terms.
    """
    half = cfg.delta + cfg.psi + 0.5 * theta
    # squared factors: e^{2s} alone would overflow from s = 355 on, even where sin(c/2) = 0
    low, high = math.exp(-s) * math.cos(half), math.exp(s) * math.sin(half)
    return (1.0 - cfg.r2) * (1.0 + cfg.r2) + cfg.r2**2 * (low * low + high * high)


def beam_splitter_intensity(cfg: BeamSplitterConfig, s: float, alpha_mag: float) -> float:
    """Bright-port intensity ``t1²|alpha|² + r2² sinh²(s)``; it does not depend on the phases."""
    return float(_bs_intensity(cfg.t1, cfg.r2, s, alpha_mag))


def beam_splitter_phase_resolution(cfg: BeamSplitterConfig, s: float, alpha_mag: float) -> PhaseResolution:
    """Best-case phase resolution of the bright output port.

    Assumes the optimal phase condition ``2 delta + 2 psi + theta = 0``:
    the variance is ``1 - r2² + r2² e^{-2s}``, the intensity is
    ``t1²|alpha|² + r2² sinh²(s)``.
    """
    return phase_resolution(_bs_intensity(cfg.t1, cfg.r2, s, alpha_mag), _bs_optimal_variance(cfg.r2, s))


def interferometer_variance(phi: float, s: float) -> float:
    """Squeezed-quadrature variance of the bright interferometer output."""
    return float(_in_variance(phi, s))


def interferometer_intensity(phi: float, s: float, alpha_mag: float) -> float:
    """Bright-port intensity: the coherent and squeezed photon numbers weighted by ``sin²(phi/2)`` / ``cos²(phi/2)``."""
    return float(_in_intensity(phi, s, alpha_mag))


def interferometer_phase_resolution(phi: float, s: float, alpha_mag: float) -> PhaseResolution:
    """Phase resolution of the bright interferometer output."""
    return phase_resolution(_in_intensity(phi, s, alpha_mag), _in_variance(phi, s))


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
        _check_budget(self.pump_photons, self.efficiency)

    @property
    def squeezed_photons(self) -> float:
        return math.sqrt(self.pump_photons / 2.0)

    @property
    def squeeze_parameter(self) -> float:
        """Exact inversion of sinh²(s) = (N/2)^{1/2}."""
        return float(_squeeze_parameter(self.pump_photons))

    @property
    def coherent_photons(self) -> float:
        return float(_coherent_photons(self.pump_photons, self.efficiency))

    def _setting(self) -> tuple[str, object]:
        """The mixer as the ``(variant, mix)`` pair of :func:`_scheme_port`."""
        if isinstance(self.mixer, BeamSplitterConfig):
            return "bs", (self.mixer.t1, self.mixer.r2)
        return "in", self.mixer.phi


def scheme_phase_resolution_exact(params: SchemeParams) -> PhaseResolution:
    """Exact scheme output: the mixing formulas with the scheme's photon budget.

    Substitutes ``|alpha|² = 2 N lambda`` and the exact squeeze parameter
    into the optimal-phase beam-splitter or interferometer result; no
    large-N approximation is made.
    """
    return phase_resolution(*_scheme_port(*params._setting(), params.pump_photons, params.efficiency))


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

    where ``x = N^{-1/2}/sqrt(8)`` approximates ``e^{-2s}``.  At
    ``phi = pi`` the arm passes only the coherent input and ``S`` is the
    limit.
    """
    exact = scheme_phase_resolution_exact(params).s
    value, deviation = _scheme_approx(*params._setting(), params.pump_photons, params.efficiency, exact)
    return SchemeApproximation(float(value), math.sqrt(params.coherent_photons), float(deviation))


def resolution_surface(n_values, mix_values, efficiency: float, variant: str = "bs") -> np.ndarray:
    """Phase-resolution surface over pump photon number and mixing setting.

    Returns an ``(len(n_values) * len(mix_values), 5)`` float array of
    ``(N, r2_or_phi, s_exact, s_approx, rel_dev)`` rows, row-major over
    ``n_values`` then ``mix_values``: each row equals
    :func:`scheme_phase_resolution_exact` and
    :func:`scheme_phase_resolution_approx` at its point.  ``variant`` is
    ``"bs"`` (mix values are reflection coefficients ``r2``) or ``"in"``
    (mix values are interferometer phases ``phi``).  A bad value raises the
    ``ValueError`` its scalar config would.
    """
    if variant not in ("bs", "in"):
        raise ValueError(f"variant must be 'bs' or 'in', got {variant!r}")
    n = np.asarray(n_values, dtype=float).reshape(-1, 1)
    m = np.asarray(mix_values, dtype=float).reshape(1, -1)
    (_check_reflection if variant == "bs" else _check_phase)(m)
    _check_budget(n, efficiency)
    mix = (_transmission(m), m) if variant == "bs" else m
    intensity, variance = _scheme_port(variant, mix, n, efficiency)
    _require(variance > 0.0, variance, "variance must be positive, got {}")
    s_exact = np.sqrt(intensity) / np.sqrt(variance)  # the roots first, as phase_resolution takes them
    value, deviation = _scheme_approx(variant, mix, n, efficiency, s_exact)
    return np.stack(np.broadcast_arrays(n, m, s_exact, value, deviation), axis=-1).reshape(-1, 5)
