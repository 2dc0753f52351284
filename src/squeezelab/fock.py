"""Truncated Fock-space representation of 1-3 bosonic modes.

States are dense complex amplitude tensors over occupation-number bases,
one axis per mode.  The module provides the standard constructors
(vacuum, number, coherent, squeezed vacuum), the one-mode moments
``<a>``, ``<a²>`` and ``<a†a>`` with the quadrature statistics built on
them, and an exact passive two-mode mixer (beam splitter /
interferometer arm) applied block-by-block in the total-photon-number
decomposition.  Everything here is brute force on purpose: this layer is
the numerical oracle against which the closed-form results of
:mod:`squeezelab.analytic` are checked.

Conventions
-----------
* Quadratures are normalized so the vacuum variance is 1: the quadrature
  of mode ``k`` at angle ``phi`` is ``Q = A + A†`` with
  ``A = e^{-i phi} a_k``.
* A squeezed vacuum with parameters ``(s, theta)`` has even-occupation
  amplitudes proportional to ``(-e^{i theta} tanh s)^{n/2}``; at
  ``theta = 0`` the minimal-variance quadrature is ``a + a†`` with
  variance ``e^{-2s}``, and ``<a²> = -sinh(s) cosh(s)``.
* The "distance intensity" used by the phase-resolution metric is the
  lowering-part expectation ``<A†A> = <a†a>`` of the distance
  quadrature, so a coherent state of amplitude ``alpha`` has intensity
  ``|alpha|²`` and phase resolution exactly ``|alpha|``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from math import lgamma
from typing import Callable, Sequence

import numpy as np
from scipy import special

from .metrics import phase_resolution

__all__ = [
    "TruncationError",
    "FockState",
    "SqueezeParams",
    "QuadratureSpec",
    "vacuum_state",
    "number_state",
    "coherent_state",
    "squeezed_vacuum",
    "product_state",
    "default_cutoff",
    "mode_moments",
    "quadrature_stats",
    "distance_intensity",
    "phase_resolution_of_mode",
    "apply_mode_unitary",
]

#: norm must stay this close to 1 after every constructor / unitary
NORM_TOL = 1e-9
#: maximum tolerated truncated-norm deficit for state constructors
DEFICIT_TOL = 1e-10
#: largest occupation cutoff a constructor accepts (the squeezed recursion takes cutoff / 2 Python steps)
MAX_CUTOFF = 2**20


class TruncationError(Exception):
    """The requested state does not fit in the truncated basis."""


def default_cutoff(mean_photons: float) -> int:
    """Starting per-mode occupation cutoff for a state with ``mean_photons``.

    Uses ``<n> + 6 sqrt(<n>) + 10``, which puts the truncation several
    standard deviations into the Poisson tail.  Constructors raise it
    further where the truncated-norm deficit still exceeds ``DEFICIT_TOL``
    (for coherent states from about ``<n> = 136`` on, for squeezed vacua
    from ``s`` about 0.22 on).
    """
    mean_photons = max(float(mean_photons), 0.0)
    return int(math.ceil(mean_photons + 6.0 * math.sqrt(mean_photons) + 10.0))


class FockState:
    """Pure state of 1-3 modes as a dense complex amplitude tensor.

    ``amps[n1, n2, ...]`` is the amplitude of the occupation basis state
    ``|n1, n2, ...>``.  Instances are treated as immutable: operations
    return new states rather than mutating in place.
    """

    __slots__ = ("amps",)

    def __init__(self, amps: np.ndarray):
        amps = np.asarray(amps, dtype=np.complex128)
        if amps.ndim < 1 or amps.ndim > 3:
            raise ValueError(f"expected 1-3 modes, got {amps.ndim}")
        self.amps = amps

    @property
    def n_modes(self) -> int:
        return self.amps.ndim

    @property
    def mode_dims(self) -> tuple[int, ...]:
        return self.amps.shape

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps.ravel()))

    def mean_photons(self, mode: int = 0) -> float:
        """Expectation of the number operator of ``mode``."""
        return mode_moments(self, mode)[2]

    def __repr__(self) -> str:
        return f"FockState(mode_dims={self.mode_dims}, norm={self.norm():.6f})"


def _check_norm(state: FockState) -> FockState:
    if abs(state.norm() - 1.0) > NORM_TOL:
        raise TruncationError(f"state norm {state.norm()} violates unit-norm invariant")
    return state


def vacuum_state(mode_dims: Sequence[int] | int) -> FockState:
    if isinstance(mode_dims, int):
        mode_dims = (mode_dims,)
    amps = np.zeros(tuple(mode_dims), dtype=np.complex128)
    amps[(0,) * len(mode_dims)] = 1.0
    return FockState(amps)


def number_state(occupations: Sequence[int] | int, mode_dims: Sequence[int] | int) -> FockState:
    if isinstance(occupations, int):
        occupations = (occupations,)
    if isinstance(mode_dims, int):
        mode_dims = (mode_dims,)
    occupations = tuple(occupations)
    mode_dims = tuple(mode_dims)
    for n, d in zip(occupations, mode_dims):
        if not 0 <= n < d:
            raise ValueError(f"occupation {n} outside [0, {d})")
    amps = np.zeros(mode_dims, dtype=np.complex128)
    amps[occupations] = 1.0
    return FockState(amps)


def _coherent_amplitudes(alpha: complex, dim: int) -> np.ndarray:
    """Coefficients exp(-|a|²/2) aⁿ/sqrt(n!) computed in log space.

    The log form avoids the underflow of the direct recursion (the n=0
    coefficient alone underflows once |alpha|² is a few hundred).
    """
    n = np.arange(dim)
    mag = abs(alpha)
    if mag == 0.0:
        out = np.zeros(dim, dtype=np.complex128)
        out[0] = 1.0
        return out
    log_mag = -0.5 * mag * mag + n * math.log(mag) - 0.5 * np.array([lgamma(k + 1.0) for k in range(dim)])
    phase = np.exp(1j * np.angle(alpha) * n)
    return np.exp(log_mag) * phase


def coherent_state(alpha: complex) -> FockState:
    """Single-mode coherent state of amplitude ``alpha``.

    The occupation cutoff is the smallest one at or above the
    :func:`default_cutoff` floor whose truncated-norm deficit, the Poisson
    tail ``pdtrc(cutoff, |alpha|²)``, is at most ``DEFICIT_TOL``; the floor
    first misses that bound at about 136 photons.  A cutoff above
    ``MAX_CUTOFF`` raises :class:`TruncationError`.
    """
    mean = abs(alpha) ** 2
    cutoff = _cutoff(lambda n: special.pdtrc(n, mean), default_cutoff(mean), f"coherent state |alpha|²={mean:g}")
    amps = _coherent_amplitudes(alpha, cutoff + 1)
    return _check_norm(FockState(amps / np.linalg.norm(amps)))


def _cutoff(deficit: Callable[[int], float], floor: int, what: str) -> int:
    """Smallest cutoff ``>= floor`` whose closed-form truncated-norm ``deficit`` is ``<= DEFICIT_TOL``.

    ``deficit(n)`` is the weight beyond occupation ``n`` and does not grow
    with ``n``.  The search doubles the cutoff from ``floor`` until the
    deficit meets the tolerance, then bisects back.  A cutoff above
    ``MAX_CUTOFF`` raises :class:`TruncationError`.
    """
    lo, hi = floor - 1, floor
    while hi > MAX_CUTOFF or deficit(hi) > DEFICIT_TOL:
        if hi >= MAX_CUTOFF:
            raise TruncationError(f"{what}: needs a cutoff above the largest one, {MAX_CUTOFF}")
        lo, hi = hi, min(2 * hi, MAX_CUTOFF)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if deficit(mid) <= DEFICIT_TOL else (mid, hi)
    return hi


@dataclass(frozen=True)
class SqueezeParams:
    """Squeezing magnitude ``s >= 0`` with a finite ``sinh²(s)``, and finite phase ``theta`` (mod 2pi)."""

    s: float
    theta: float = 0.0

    def __post_init__(self):
        try:
            valid = math.isfinite(self.theta) and self.s >= 0.0 and math.isfinite(self.mean_photons)
        except OverflowError:  # sinh(s) or its square
            valid = False
        if not valid:
            raise ValueError(f"squeezing needs a finite theta and s >= 0 with a finite sinh(s)^2, "
                             f"got s = {self.s}, theta = {self.theta}")
        object.__setattr__(self, "theta", float(self.theta) % (2.0 * math.pi))

    @property
    def mean_photons(self) -> float:
        return math.sinh(self.s) ** 2


def _squeezed_amplitudes(params: SqueezeParams, dim: int) -> np.ndarray:
    """Even-occupation coefficients via the stable two-term ratio recursion."""
    amps = np.zeros(dim, dtype=np.complex128)
    c = 1.0 / math.sqrt(math.cosh(params.s))
    ratio_base = -np.exp(1j * params.theta) * math.tanh(params.s)
    amps[0] = c
    n = 0
    while n + 2 < dim:
        # c_{n+2} / c_n = (-e^{i theta} tanh s) * sqrt((n+1)/(n+2))
        c = c * ratio_base * math.sqrt((n + 1.0) / (n + 2.0))
        amps[n + 2] = c
        n += 2
    return amps


def squeezed_vacuum(params: SqueezeParams, cutoff: int | None = None) -> FockState:
    """Single-mode squeezed vacuum ``|0, s e^{i theta}>``.

    Only even occupations are populated, and the pair number ``n // 2`` is
    negative-binomial (``r = 1/2``, success probability ``sech² s``), so the
    truncated-norm deficit beyond cutoff ``n`` is
    ``betainc(n // 2 + 1, 1/2, tanh² s)``.  With ``cutoff=None`` the cutoff
    is the smallest one at or above the :func:`default_cutoff` floor whose
    deficit is at most ``DEFICIT_TOL`` (see :func:`_cutoff`); an explicit
    cutoff is used as given and rejected if it leaves too large a deficit
    or is above ``MAX_CUTOFF``.
    """
    tanh2 = math.tanh(params.s) ** 2
    deficit = lambda n: special.betainc(n // 2 + 1, 0.5, tanh2)
    what = f"squeezed vacuum s={params.s:g}"
    if cutoff is not None and (cutoff > MAX_CUTOFF or deficit(cutoff) > DEFICIT_TOL):
        raise TruncationError(f"{what} at cutoff {cutoff}: norm deficit {deficit(cutoff):.3e} "
                              f"(the largest cutoff is {MAX_CUTOFF})")
    if params.s == 0.0:
        return vacuum_state(2 if cutoff is None else cutoff + 1)
    if cutoff is None:
        cutoff = _cutoff(deficit, default_cutoff(params.mean_photons), what)
    amps = _squeezed_amplitudes(params, int(cutoff) + 1)
    return _check_norm(FockState(amps / np.linalg.norm(amps)))


def product_state(*states: FockState) -> FockState:
    """Tensor product of single-mode states into one multimode state."""
    amps = states[0].amps
    for st in states[1:]:
        amps = np.tensordot(amps, st.amps, axes=0)
    return FockState(amps)


# ---------------------------------------------------------------------------
# one-mode moments and quadratures

def mode_moments(state: FockState, mode: int) -> tuple[complex, complex, float]:
    """``(<a>, <a²>, <a†a>)`` of one mode, as sums over the amplitude tensor.

    With ``c`` the amplitudes along the mode's axis, ``a|psi>`` has
    components ``sqrt(n+1) c[n+1]`` and ``a†a|psi>`` components ``n c[n]``;
    each moment is then one ``vdot``.
    """
    if not 0 <= mode < state.n_modes:
        raise ValueError(f"mode index {mode} out of range for {state.n_modes}-mode state")
    c = np.moveaxis(state.amps, mode, 0)
    n = np.arange(float(c.shape[0])).reshape((-1,) + (1,) * (c.ndim - 1))
    root = np.sqrt(n[1:])
    lowered = root * c[1:]  # a|psi>
    mean = np.vdot(c[:-1], lowered)
    square = np.vdot(c[:-2], root[:-1] * lowered[1:])
    return complex(mean), complex(square), float(np.vdot(c, n * c).real)


@dataclass(frozen=True)
class QuadratureSpec:
    """The vacuum-variance-1 quadrature ``Q = A + A†`` of one mode, with ``A = e^{-i angle} a_mode``.

    ``angle = 0`` gives ``a + a†``, ``angle = -pi/2`` gives ``-i(a† - a)``.
    """

    mode: int
    angle: float


def _quadrature(moments: tuple[complex, complex, float], angle: float) -> tuple[float, float, float]:
    """``(mean, variance, <Q²>)`` of the quadrature at ``angle``, from :func:`mode_moments`."""
    mean_a, square, number = moments
    phase = cmath.exp(-1j * angle)
    mean = 2.0 * (phase * mean_a).real
    second = 2.0 * (phase * phase * square).real + 2.0 * number + 1.0
    return mean, second - mean * mean, second


def quadrature_stats(state: FockState, spec: QuadratureSpec) -> tuple[float, float, float]:
    """Return ``(mean, variance, intensity)`` of a quadrature.

    ``intensity`` is ``<Q†Q> = <Q²>`` of the Hermitian quadrature operator;
    the variance is ``<Q²> - <Q>²`` and equals 1 on vacuum for every spec.
    """
    return _quadrature(mode_moments(state, spec.mode), spec.angle)


def distance_intensity(state: FockState, spec: QuadratureSpec) -> float:
    """Lowering-part intensity ``<A†A> = <a†a>`` of a quadrature, whatever its angle.

    This is the photon-number-like numerator of the phase-resolution
    metric: for a coherent state it equals ``|alpha|²``, for a squeezed
    vacuum ``sinh²(s)``.
    """
    return mode_moments(state, spec.mode)[2]


def phase_resolution_of_mode(state: FockState, mode: int = 0):
    """Phase resolution of one mode with auto-aligned quadratures.

    The distance quadrature is aligned with the mean field; for zero-mean
    states (squeezed vacuum) it falls back to the major axis of the noise
    ellipse, whose orientation is defined to within pi.  The uncertainty
    quadrature is the one at right angles to it.
    """
    moments = mode_moments(state, mode)
    mean_a, square, number = moments
    if abs(mean_a) > 1e-8:
        chi = cmath.phase(mean_a)
    else:
        chi = 0.0 if abs(square) < 1e-14 else 0.5 * cmath.phase(square)
    _, variance, _ = _quadrature(moments, chi + 0.5 * math.pi)
    return phase_resolution(number, variance)


# ---------------------------------------------------------------------------
# passive two-mode mixing

#: largest memory, in bytes, that one two-mode mix may ask for (output tensor and rotation bands)
MAX_MIX_BYTES = 4 * 2**30

#: ``(theta, d1, d2, bands)`` of the last :func:`_rotation_bands` build (``d1 = 0``: none yet)
_rotation_cache: tuple[float, int, int, list[np.ndarray]] = (0.0, 0, 0, [])


def _rotation_bands(theta: float, d1: int, d2: int) -> tuple[int, list[np.ndarray]]:
    """Column bands of the total-photon-number blocks of ``U = exp[theta (a1† a2 - a2† a1)]``.

    Block ``n`` is the real orthogonal ``B[m', m]`` mapping ``|m, n-m>`` to
    ``sum_m' B[m', m] |m', n-m'>``.  Its band keeps only the columns
    ``max(0, n - d2 + 1) .. min(d1 - 1, n)`` that a ``d1 x d2`` input reaches.
    The last build is reused for the same angle and an input no larger in
    either mode.  Returns the ``d2`` the bands were built for, and the bands.
    """
    global _rotation_cache
    built_theta, built_d1, built_d2, bands = _rotation_cache
    if built_theta == theta and d1 <= built_d1 and d2 <= built_d2:
        return built_d2, bands
    c, s = math.cos(theta), math.sin(theta)
    bands = [np.ones((1, 1))]
    for n in range(1, d1 + d2 - 1):
        first = max(0, n - d2)  # first column of band n - 1
        bands.append(_next_rotation_band(bands[-1], first, max(0, n - d2 + 1) - first, min(d1 - 1, n) - first, c, s))
    _rotation_cache = (theta, d1, d2, bands)
    return d2, bands


def _next_rotation_band(prev: np.ndarray, first: int, lo: int, hi: int, c: float, s: float) -> np.ndarray:
    """Columns ``first + lo .. first + hi`` of rotation block ``n`` from ``prev``, in O(n w).

    ``prev`` (shape ``(n, w)``) holds columns ``first .. first + w - 1`` of
    block ``n - 1``; ``lo`` is 0 or 1 and ``hi`` is ``w - 1`` or ``w``, so
    the band owns exactly the columns it keeps.  With ``c, s = cos theta,
    sin theta``, ``U a1† U† = c a1† - s a2†``, ``U a2† U† = s a1† + c a2†`` and
    ``|m, n-m> = (sqrt(m) a1† |m-1, n-m> + sqrt(n-m) a2† |m, n-m-1>) / n``,
    so column ``m`` needs only columns ``m - 1`` and ``m`` of block ``n - 1``:
    all are exact but column ``first`` if ``first > 0`` and ``first + w`` if
    ``first + w < n``.  Averaging both creation routes keeps the blocks
    orthogonal to machine precision at any size; one route alone (or a
    factorial formula) loses orthogonality beyond n ~ 100.
    """
    n, w = prev.shape
    up = np.sqrt(np.arange(1.0, n + 1.0))  # a1† weight sqrt(m + 1) on |m, n-1-m>
    down = up[::-1]  # a2† weight sqrt(n - m)
    add1 = up[:, None] * prev
    add2 = down[:, None] * prev
    up_col, down_col = up[first:first + w], down[first:first + w]
    band = np.zeros((n + 1, hi - lo + 1))  # column j of prev feeds columns j + 1 and j
    band[1:, 1 - lo:] = add1[:, :hi] * (c / n * up_col[:hi])
    band[:-1, 1 - lo:] -= add2[:, :hi] * (s / n * up_col[:hi])
    band[1:, :w - lo] += add1[:, lo:] * (s / n * down_col[lo:])
    band[:-1, :w - lo] += add2[:, lo:] * (c / n * down_col[lo:])
    return band


def _phase_diag(amps: np.ndarray, phi1: float, phi2: float) -> np.ndarray:
    """State-space action of the mode phase map diag(e^{i phi1}, e^{i phi2})."""
    d1, d2 = amps.shape
    p1 = np.exp(1j * phi1 * np.arange(d1))
    p2 = np.exp(1j * phi2 * np.arange(d2))
    return amps * p1[:, None] * p2[None, :]


def _apply_rotation(amps: np.ndarray, theta: float) -> np.ndarray:
    d1, d2 = amps.shape
    total = d1 + d2 - 1
    # the complex output, and the real bands: band n is n + 1 rows by one column per input |m, n - m>
    need = 16 * total**2 + 4 * d1 * d2 * (d1 + d2)
    if need > MAX_MIX_BYTES:
        raise TruncationError(f"mixing a {d1} x {d2} input needs {need / 2**30:.1f} GiB, "
                              f"above the {MAX_MIX_BYTES / 2**30:g} GiB bound")
    out = np.zeros((total, total), dtype=np.complex128)
    built_d2, bands = _rotation_bands(theta, d1, d2)
    for n in range(total):
        lo, hi = max(0, n - d2 + 1), min(d1 - 1, n)
        first = max(0, n - built_d2 + 1)  # first column of band n
        m, mo = np.arange(lo, hi + 1), np.arange(n + 1)
        out[mo, n - mo] = bands[n][:, lo - first : hi - first + 1] @ amps[m, n - m]
    return out


def _decompose_mode_matrix(matrix: np.ndarray):
    """Split a 2x2 unitary into phases * real rotation * phases.

    Returns ``(mu1, mu2, theta, nu2)`` with
    ``M = diag(e^{i mu1}, e^{i mu2}) R(theta) diag(1, e^{i nu2})`` and
    ``R = [[cos, sin], [-sin, cos]]``.
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.shape != (2, 2):
        raise ValueError("mode matrix must be 2x2")
    if np.max(np.abs(m @ m.conj().T - np.eye(2))) > 1e-12:
        raise ValueError("mode matrix is not unitary to 1e-12; coefficient set rejected")
    c = abs(m[0, 0])
    s = abs(m[0, 1])
    theta = math.atan2(s, c)
    if s < 1e-15:
        return float(np.angle(m[0, 0])), float(np.angle(m[1, 1])), 0.0, 0.0
    if c < 1e-15:
        return float(np.angle(m[0, 1])), float(np.angle(-m[1, 0])), 0.5 * math.pi, 0.0
    mu1 = float(np.angle(m[0, 0]))
    nu2 = float(np.angle(m[0, 1])) - mu1
    mu2 = float(np.angle(-m[1, 0]))
    return mu1, mu2, theta, nu2


def apply_mode_unitary(state: FockState, matrix: np.ndarray) -> FockState:
    """Apply a passive (photon-conserving) 2-mode transformation.

    The output state reproduces, on its plain mode operators, the
    statistics of the transformed modes ``b_i = sum_j M[i, j] a_j`` on the
    input state.  Output mode dimensions are enlarged so that no amplitude
    is clipped; norm and total photon number are conserved exactly up to
    rounding.
    """
    if state.n_modes != 2:
        raise ValueError("mode mixing is defined for two-mode states")
    mu1, mu2, theta, nu2 = _decompose_mode_matrix(matrix)
    amps = _phase_diag(state.amps, 0.0, nu2)
    amps = _apply_rotation(amps, theta)
    amps = _phase_diag(amps, mu1, mu2)
    return _check_norm(FockState(amps))
