"""Brute-force verification of the closed-form mixer results.

Each check builds the actual two-mode input state (coherent beam plus
squeezed vacuum) in a truncated Fock space, applies the mixer as an exact
passive unitary, measures the output-port statistics, and compares them
against the corresponding formula from :mod:`squeezelab.analytic`.

Input phase conventions: the coherent amplitude is oriented so the output
mean field lies on the imaginary axis, making the measured cosine
quadrature the uncertainty direction, and the squeeze phase is set to the
optimal value (``theta = -2 delta - 2 psi`` for the beam splitter,
``theta = -2 global_phase`` for the interferometer) unless overridden.
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
    FockState,
    QuadratureSpec,
    SqueezeParams,
    _quadrature,
    apply_mode_unitary,
    coherent_state,
    distance_intensity,  # not called here; perfbench/tracing.py patches this name
    mode_moments,
    product_state,
    quadrature_stats,
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


def _mixed_output(matrix, alpha: complex, params: SqueezeParams, cutoff: int | None) -> FockState:
    beam = coherent_state(alpha)
    squeezed = squeezed_vacuum(params, cutoff)
    return apply_mode_unitary(product_state(beam, squeezed), matrix)


def _crosscheck(mixer, theta: float, alpha: complex, s: float, analytic: PhaseResolution,
                cutoff: int | None) -> CrosscheckReport:
    """Compare ``analytic`` with the bright port of ``mixer`` fed ``alpha`` and the squeezed vacuum ``(s, theta)``."""
    out = _mixed_output(mixer.mode_matrix(), alpha, SqueezeParams(s, theta), cutoff)
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


def beam_splitter_crosscheck(
    cfg: BeamSplitterConfig, s: float, alpha_mag: float, cutoff: int | None = None
) -> CrosscheckReport:
    """Optimal-phase beam splitter: formulas vs the truncated-space unitary."""
    theta = -2.0 * cfg.delta - 2.0 * cfg.psi
    alpha = 1j * alpha_mag * complex(math.cos(-cfg.delta), math.sin(-cfg.delta))
    return _crosscheck(cfg, theta, alpha, s, beam_splitter_phase_resolution(cfg, s, alpha_mag), cutoff)


def interferometer_crosscheck(
    cfg: InterferometerConfig, s: float, alpha_mag: float, cutoff: int | None = None
) -> CrosscheckReport:
    """Interferometer bright port: formulas vs the truncated-space unitary."""
    theta = -2.0 * cfg.global_phase
    alpha = -alpha_mag * complex(math.cos(cfg.psi - cfg.global_phase), math.sin(cfg.psi - cfg.global_phase))
    return _crosscheck(cfg, theta, alpha, s, interferometer_phase_resolution(cfg.phi, s, alpha_mag), cutoff)


def beam_splitter_variance_crosscheck(
    cfg: BeamSplitterConfig, s: float, theta: float, alpha_mag: float = 0.0, cutoff: int | None = None
) -> tuple[float, float]:
    """Variance only, at an arbitrary squeeze phase.

    Returns ``(analytic, fock)`` for the cosine quadrature of the bright
    port; useful for scanning the phase dependence away from the optimum.
    """
    out = _mixed_output(cfg.mode_matrix(), complex(alpha_mag), SqueezeParams(s, theta), cutoff)
    _, variance, _ = quadrature_stats(out, QuadratureSpec(0, 0.0))
    return beam_splitter_variance(cfg, s, theta), variance
