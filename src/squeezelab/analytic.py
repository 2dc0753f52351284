"""Closed-form results for mixing squeezed vacuum with a coherent beam.

Covers the two passive mixing elements (a lossless beam splitter and a
Mach-Zehnder-style interferometer arm), the variance and phase resolution
of their bright output port, and the pump-photon budget of the full
generation scheme: an ``N``-photon coherent pump drives a parametric
oscillator producing a squeezed vacuum of ``(N/2)^{1/2}`` photons, the
unconverted pump is down-converted to ``2 N lambda`` coherent photons at
the sub-harmonic frequency, and the two fields are recombined.

At the optimal phase both mixers are one linear map, the bright port
``t²·coherent + r²·squeezed`` over a moment of each input (``t² + r² =
1``): a beam splitter has ``(t², r²) = (1 - r2², r2²)``, an
interferometer ``(sin²(phi/2), cos²(phi/2))``.  Fed the photon numbers
``(|alpha|², sinh²(s))`` it gives the intensity, fed the variances
``(1, e^{-2s})`` the variance.  The large-N scheme is the same port fed
the squeezed moments ``((N/2)^{1/2}, N^{-1/2}/sqrt(8))``.

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

def _bs_weights(r2):
    """``(t², r²)`` of a symmetric lossless splitter; ``t²`` as a product, so it keeps full relative accuracy near r2 = 1."""
    return (1.0 - r2) * (1.0 + r2), np.square(r2)


def _in_weights(phi):
    """``(sin²(phi/2), cos²(phi/2))``, formed directly: ``1 - cos²`` would cancel at small ``phi``."""
    half = 0.5 * phi
    return np.square(np.sin(half)), np.square(np.cos(half))


def _port(weights, coherent, squeezed):
    """The optimal-phase bright port, ``t²·coherent + r²·squeezed``: a sum of non-negative terms.

    ``weights`` is the mixer's ``(t², r²)``; ``coherent`` and ``squeezed``
    are one moment of each input.  Fed photon numbers it gives the port's
    intensity, fed squeezed-quadrature variances its variance.
    """
    t_sq, r_sq = weights
    return t_sq * coherent + r_sq * squeezed


def _vacuum_port(weights, alpha_sq, s):
    """``(intensity, variance)`` of the port fed ``alpha_sq`` coherent photons and the squeezed vacuum ``s``."""
    with np.errstate(over="ignore"):
        sinh_sq = np.square(np.sinh(s))
    _require(_finite(sinh_sq), s, "squeezing needs a finite sinh(s)^2, got s = {}")  # as fock.SqueezeParams
    return _port(weights, alpha_sq, sinh_sq), _port(weights, 1.0, np.exp(-2.0 * s))


def _squeeze_parameter(n):
    """Exact inversion of sinh²(s) = (N/2)^{1/2}."""
    # two correctly rounded square roots give the same bits for a float and an array; a 0.25 power need not
    return np.arcsinh(np.sqrt(np.sqrt(n / 2.0)))


def _coherent_photons(n, lam):
    return 2.0 * n * lam


def _scheme_approx(weights, n, lam, s_exact):
    """Large-N value ``sqrt(I) / sqrt(V)`` of the scheme's port, and its relative deviation from ``s_exact``.

    The squeezed input's moments are ``((N/2)^{1/2}, x = N^{-1/2}/sqrt(8))``.
    """
    intensity = _port(weights, _coherent_photons(n, lam), np.sqrt(n / 2.0))
    value = np.sqrt(intensity) / np.sqrt(_port(weights, 1.0, 1.0 / (np.sqrt(n) * np.sqrt(8.0))))
    return value, np.abs(value - s_exact) / s_exact


# ---------------------------------------------------------------------------
# the mixing elements

@dataclass(frozen=True)
class BeamSplitterConfig:
    """Lossless symmetric beam splitter with reflection coefficient ``r2``.

    A lossless splitter with real coefficients whose mode map is unitary
    (``t1 r1 = t2 r2``) is symmetric, so ``r2`` fixes it: ``t = (1 -
    r2²)^{1/2}`` on both ports.  Its bright port is the weight pair
    ``(t², r²) = (1 - r2², r2²)`` of the module docstring.  ``delta`` is
    the overall phase of the element, ``psi`` the relative phase between
    the reflected and transmitted paths.
    """

    r2: float
    delta: float = 0.0
    psi: float = 0.0

    def __post_init__(self):
        _check_reflection(self.r2)
        _check_finite(self, "delta", "psi")

    @classmethod
    def from_reflectivity(cls, r2: float, delta: float = 0.0, psi: float = 0.0) -> "BeamSplitterConfig":
        """Splitter with reflected fraction ``r2²`` on port 2."""
        return cls(r2, delta, psi)

    @property
    def port_weights(self):
        """``(t², r²)``: the bright port's weights on the coherent and squeezed inputs."""
        return _bs_weights(self.r2)

    def mode_matrix(self) -> np.ndarray:
        """Unitary 2x2 map from input to output mode operators.

        Row 0 is the bright output ``b1 = e^{i delta}(t a1 + e^{i psi} r2 a2)``;
        row 1 is the orthonormal completion of the dark port.
        """
        t = math.sqrt(max(0.0, 1.0 - self.r2 * self.r2))
        phase = np.exp(1j * self.delta)
        return phase * np.array(
            [
                [t, np.exp(1j * self.psi) * self.r2],
                [-np.exp(-1j * self.psi) * self.r2, t],
            ],
            dtype=np.complex128,
        )


@dataclass(frozen=True)
class InterferometerConfig:
    """Two-arm interferometer with relative phase ``phi`` in [0, pi].

    Its bright port is the weight pair ``(t², r²) = (sin²(phi/2),
    cos²(phi/2))``: ``phi = 0`` passes only the squeezed input to the bright
    output, ``phi = pi`` only the coherent input.  ``psi`` is the arm phase
    and ``global_phase`` an overall phase on both outputs.
    """

    phi: float
    psi: float = 0.0
    global_phase: float = 0.0

    def __post_init__(self):
        _check_phase(self.phi)
        _check_finite(self, "psi", "global_phase")

    @property
    def port_weights(self):
        """``(t², r²)``: the bright port's weights on the coherent and squeezed inputs."""
        return _in_weights(self.phi)

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
    ``1 - r2² + r2² (e^{-2s} cos²(c/2) + e^{2s} sin²(c/2))``: the bright
    port fed that squeezed-input variance.
    """
    half = cfg.delta + cfg.psi + 0.5 * theta
    # squared factors: e^{2s} alone would overflow from s = 355 on, even where sin(c/2) = 0
    low, high = math.exp(-s) * math.cos(half), math.exp(s) * math.sin(half)
    return float(_port(cfg.port_weights, 1.0, low * low + high * high))


def beam_splitter_intensity(cfg: BeamSplitterConfig, s: float, alpha_mag: float) -> float:
    """Bright-port intensity ``(1 - r2²)|alpha|² + r2² sinh²(s)``; it does not depend on the phases."""
    return float(_vacuum_port(cfg.port_weights, np.square(alpha_mag), s)[0])


def beam_splitter_phase_resolution(cfg: BeamSplitterConfig, s: float, alpha_mag: float) -> PhaseResolution:
    """Best-case phase resolution of the bright output port, at the optimal phase ``2 delta + 2 psi + theta = 0``.

    The variance is ``1 - r2² + r2² e^{-2s}``, the intensity ``(1 - r2²)|alpha|² + r2² sinh²(s)``.
    """
    return phase_resolution(*_vacuum_port(cfg.port_weights, np.square(alpha_mag), s))


def interferometer_variance(phi: float, s: float) -> float:
    """Squeezed-quadrature variance ``sin²(phi/2) + cos²(phi/2) e^{-2s}`` of the bright interferometer output."""
    return float(_port(_in_weights(phi), 1.0, np.exp(-2.0 * s)))


def interferometer_intensity(phi: float, s: float, alpha_mag: float) -> float:
    """Bright-port intensity: the coherent and squeezed photon numbers weighted by ``sin²(phi/2)`` / ``cos²(phi/2)``."""
    return float(_vacuum_port(_in_weights(phi), np.square(alpha_mag), s)[0])


def interferometer_phase_resolution(phi: float, s: float, alpha_mag: float) -> PhaseResolution:
    """Phase resolution of the bright interferometer output."""
    return phase_resolution(*_vacuum_port(_in_weights(phi), np.square(alpha_mag), s))


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


def scheme_phase_resolution_exact(params: SchemeParams) -> PhaseResolution:
    """Exact scheme output: the mixing formulas with the scheme's photon budget.

    Substitutes ``|alpha|² = 2 N lambda`` and the exact squeeze parameter
    into the mixer's optimal-phase bright port; no large-N approximation
    is made.
    """
    weights = params.mixer.port_weights
    return phase_resolution(*_vacuum_port(weights, params.coherent_photons, params.squeeze_parameter))


@dataclass(frozen=True)
class SchemeApproximation:
    """Large-N evaluation of the scheme plus its deviation from exact.

    ``value`` keeps the sub-leading ``N^{-1/2}/sqrt(8)`` mixing terms (the
    ``e^{-2s}`` tail of the squeezed noise); ``limit`` is the small-mixing
    limit ``sqrt(2 N lambda)``, which fixes ``S = [2N (...)]^{1/2}``.
    """

    value: float
    limit: float
    rel_deviation: float


def scheme_phase_resolution_approx(params: SchemeParams) -> SchemeApproximation:
    """Large-N asymptotic scheme output (intended for N >= 1e3).

    With the mixer's bright-port weights ``(t², r²)``::

        S = [2N (lambda t² + r² x) / (t² + r² x)]^{1/2}

    where ``x = N^{-1/2}/sqrt(8)`` approximates ``e^{-2s}``.  It is
    evaluated as ``sqrt(I) / sqrt(V)`` of the exact scheme's bright port
    with the squeezed input's moments ``(sinh²(s), e^{-2s})`` replaced by
    ``((N/2)^{1/2}, x)``.  At the interferometer's ``phi = pi`` the arm
    passes only the coherent input and ``S`` is the limit.
    """
    exact = scheme_phase_resolution_exact(params).s
    value, deviation = _scheme_approx(params.mixer.port_weights, params.pump_photons, params.efficiency, exact)
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
    check, weights_of = (_check_reflection, _bs_weights) if variant == "bs" else (_check_phase, _in_weights)
    n = np.asarray(n_values, dtype=float).reshape(-1, 1)
    m = np.asarray(mix_values, dtype=float).reshape(1, -1)
    check(m)
    _check_budget(n, efficiency)
    weights = weights_of(m)
    intensity, variance = _vacuum_port(weights, _coherent_photons(n, efficiency), _squeeze_parameter(n))
    _require(variance > 0.0, variance, "variance must be positive, got {}")
    s_exact = np.sqrt(intensity) / np.sqrt(variance)  # the roots first, as phase_resolution takes them
    value, deviation = _scheme_approx(weights, n, efficiency, s_exact)
    return np.stack(np.broadcast_arrays(n, m, s_exact, value, deviation), axis=-1).reshape(-1, 5)
