"""Brute-force verification of the closed-form mixer results.

Each check builds the actual two-mode input state (coherent beam plus
squeezed vacuum) in a truncated Fock space, applies the mixer as an exact
passive unitary, reads the bright port's moments once with
:func:`~squeezelab.fock.mode_moments`, and compares its variance,
intensity and phase resolution against the formulas of
:mod:`squeezelab.analytic`.

Input phase conventions: the coherent amplitude is oriented so the output
mean field lies on the imaginary axis, making the measured cosine
quadrature the uncertainty direction.  The squeeze phase is the mixer's
``optimal_theta`` unless a beam-splitter check is given another, and
both sides use it as given, not reduced mod 2pi.  Each input state has its
constructor's cutoff, the smallest that meets ``fock.DEFICIT_TOL``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .analytic import (
    BeamSplitterConfig,
    InterferometerConfig,
    beam_splitter_phase_resolution,
    beam_splitter_variance,
    interferometer_phase_resolution,
    interferometer_variance,  # not called here; perfbench/tracing.py patches this name
)
from .fock import (
    SqueezeParams,
    _quadrature,
    apply_mode_unitary,
    coherent_state,
    distance_intensity,  # not called here; perfbench/tracing.py patches this name
    mode_moments,
    product_state,
    quadrature_stats,  # not called here; perfbench/tracing.py patches this name
    squeezed_vacuum,
)
from .metrics import PhaseResolution, phase_resolution

__all__ = [
    "CrosscheckReport",
    "beam_splitter_crosscheck",
    "interferometer_crosscheck",
    "beam_splitter_variance_crosscheck",
    "relative_error",
]


def relative_error(analytic: float, fock: float) -> float:
    """``|analytic - fock|`` relative to the analytic value, floored at 1e-12."""
    return abs(analytic - fock) / max(abs(analytic), 1e-12)


@dataclass(frozen=True)
class CrosscheckReport:
    """Analytic vs Fock-space values for one mixer configuration."""

    analytic_variance: float
    fock_variance: float
    analytic_intensity: float
    fock_intensity: float
    analytic_s: float
    fock_s: float

    @property
    def max_rel_err(self) -> float:
        """The largest error of the variance, the intensity and S, each relative to the analytic value."""
        pairs = ((self.analytic_variance, self.fock_variance), (self.analytic_intensity, self.fock_intensity),
                 (self.analytic_s, self.fock_s))
        return max(relative_error(a, b) for a, b in pairs)


def _crosscheck(mixer, theta: float, alpha: complex, s: float, analytic: PhaseResolution) -> CrosscheckReport:
    """Compare ``analytic`` with the bright port of ``mixer`` fed ``alpha`` and the squeezed vacuum ``(s, theta)``."""
    squeezed = squeezed_vacuum(SqueezeParams(s, theta))
    out = apply_mode_unitary(product_state(coherent_state(alpha), squeezed), mixer.mode_matrix())
    moments = mode_moments(out, 0)  # once: the cosine-quadrature variance and <a†a> of the bright port
    _, variance, _ = _quadrature(moments, 0.0)
    intensity = moments[2]
    return CrosscheckReport(
        analytic_variance=analytic.var_x,
        fock_variance=variance,
        analytic_intensity=analytic.intensity_y,
        fock_intensity=intensity,
        analytic_s=analytic.s,
        fock_s=phase_resolution(intensity, variance).s,
    )


def beam_splitter_crosscheck(cfg: BeamSplitterConfig, s: float, alpha_mag: float,
                             theta: float | None = None) -> CrosscheckReport:
    """Beam splitter at squeeze phase ``theta`` (None: ``cfg.optimal_theta``): formulas vs the truncated-space unitary."""
    theta = cfg.optimal_theta if theta is None else theta
    alpha = 1j * alpha_mag * complex(math.cos(-cfg.delta), math.sin(-cfg.delta))
    intensity = beam_splitter_phase_resolution(cfg, s, alpha_mag).intensity_y
    analytic = phase_resolution(intensity, beam_splitter_variance(cfg, s, theta))
    return _crosscheck(cfg, theta, alpha, s, analytic)


def interferometer_crosscheck(cfg: InterferometerConfig, s: float, alpha_mag: float) -> CrosscheckReport:
    """Interferometer bright port: formulas vs the truncated-space unitary."""
    alpha = -alpha_mag * complex(math.cos(cfg.psi - cfg.global_phase), math.sin(cfg.psi - cfg.global_phase))
    return _crosscheck(cfg, cfg.optimal_theta, alpha, s, interferometer_phase_resolution(cfg.phi, s, alpha_mag))


def beam_splitter_variance_crosscheck(cfg: BeamSplitterConfig, s: float, theta: float,
                                      alpha_mag: float = 0.0) -> tuple[float, float]:
    """The ``(analytic, fock)`` variance of :func:`beam_splitter_crosscheck` at squeeze phase ``theta``."""
    report = beam_splitter_crosscheck(cfg, s, alpha_mag, theta)
    return report.analytic_variance, report.fock_variance
