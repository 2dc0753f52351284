"""Lossless parametric oscillator in a truncated Fock space.

A pump mode starts in a coherent state of ``N`` photons and feeds one
(degenerate) or two (non-degenerate signal/idler) sub-harmonic modes
through the trilinear couplings

    H_deg = i (kappa/2) (b a1†² - b† a1²)
    H_non = i  kappa    (b a2† a3† - b† a2 a3)

with ``hbar = 1`` and time measured in units of ``1/kappa``.  Both
Hamiltonians conserve a charge (``n1 + 2 n_pump`` and
``n2 + n3 + 2 n_pump``; the non-degenerate case also conserves
``n2 - n3``), so the state factorizes into small tridiagonal blocks that
are propagated by exact eigendecomposition -- there is no step-size error
anywhere.  Each block has a zero diagonal, so it is bipartite and its
square splits by sublattice: one real eigensolve of half the block's size
gives the whole propagation (see :class:`BlockEvolution`).  The pump
phase ``phi`` is a frame rotation, ``exp(i phi charge / 2)``, which commutes
with both Hamiltonians: the blocks propagate real amplitudes, and ``phi``
enters only as ``e^{iK phi}`` on the charge-2K block and ``cos(phi)`` in
the ``x``-quadrature read-out.  Every read-out, observables on a time grid
or ``var_x`` with its two time derivatives at one time, is one sum over the
blocks of their real amplitudes.  A dense full-tensor propagator (no charge
decomposition) is included as the independent cross-check route.

With the pump amplitude real positive, the squeezed quadrature of the
sub-harmonic is ``-i(a† - a)``, ``QuadratureSpec(mode, -pi/2)`` of
:mod:`squeezelab.fock` (for the signal/idler pair, that quadrature of the
normalized composite mode ``i(a2 - a3)/sqrt(2)``); for small
``sqrt(N) kappa t`` its variance follows the undepleted-pump law
``exp(-2 sqrt(N) kappa t)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.sparse as sparse
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import minimize_scalar  # not called here; perfbench/tracing.py patches this name
from scipy.sparse.linalg import expm_multiply

from .fock import coherent_state
from .metrics import PhaseResolution, phase_resolution

__all__ = [
    "OscillatorConfig",
    "EvolutionResult",
    "OptimalSqueezing",
    "hamiltonian_block",
    "block_basis",
    "BlockEvolution",
    "evolve",
    "default_t_max",
    "find_optimal_squeezing",
    "dense_evolve",
    "blocks_to_dense",
]

OscillatorKind = Literal["degenerate", "nondegenerate"]

GRID_POINTS = 32  # time points per window scan of find_optimal_squeezing: they only bracket its minimum
MAX_EXTENSIONS = 8  # window doublings it tries before giving up
MAX_NEWTON_PASSES = 48  # cap on its refinement's derivative passes; bisection alone needs up to ~42
START_WEIGHT_TAIL = 1e-30  # start-site weight of the eigenvector columns a block may drop


@dataclass(frozen=True)
class OscillatorConfig:
    """Lossless oscillator run parameters.

    ``pump_photons`` is the mean photon number of the initial coherent
    pump (0 is allowed and gives a stationary vacuum run).  ``coupling``
    is the unit of time (both Hamiltonians are linear in it); it defaults
    to 1, and the longest window the optimum search scans must stay finite.
    """

    kind: OscillatorKind
    pump_photons: float
    coupling: float = 1.0
    pump_phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("degenerate", "nondegenerate"):
            raise ValueError(f"kind must be 'degenerate' or 'nondegenerate', got {self.kind!r}")
        for name in ("pump_photons", "coupling", "pump_phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.pump_photons < 0.0:
            raise ValueError(f"pump photon number must be >= 0, got {self.pump_photons}")
        if self.coupling <= 0.0:
            raise ValueError(f"coupling must be positive, got {self.coupling}")
        if not math.isfinite(2.0**MAX_EXTENSIONS * default_t_max(self)):
            raise ValueError(f"coupling {self.coupling} is too small: its time window is not finite")


def _block_occupations(kind: OscillatorKind, charge: int) -> tuple[np.ndarray, np.ndarray]:
    """Sub-harmonic occupation (``n1``, or ``m = n2 = n3``) and pump occupation per site of one block.

    Sites run in :func:`block_basis` order, pump occupation ascending.
    """
    if charge < 0:
        raise ValueError("charge must be >= 0")
    if kind != "degenerate" and charge % 2:
        raise ValueError("non-degenerate blocks with vacuum signal/idler have even charge")
    pump = np.arange(charge // 2 + 1)
    return (charge - 2 * pump if kind == "degenerate" else charge // 2 - pump), pump


def block_basis(kind: OscillatorKind, charge: int) -> list[tuple[int, ...]]:
    """Occupation tuples of one conserved-charge block, pump occupation ascending.

    Degenerate: ``(n1, n_pump)`` with ``n1 + 2 n_pump = charge``.
    Non-degenerate: ``(m, m, n_pump)`` with ``2m + 2 n_pump = charge`` --
    the ``n2 = n3`` sector reachable from vacuum signal/idler (``charge``
    must be even there).
    """
    sub, pump = (occ.tolist() for occ in _block_occupations(kind, charge))
    if kind == "degenerate":
        return list(zip(sub, pump))
    return list(zip(sub, sub, pump))


def _block_couplings(kind: OscillatorKind, charge: int) -> np.ndarray:
    """Off-diagonal ``b`` of one block at coupling 1, ``H[k-1, k] = i b[k-1]`` in :func:`block_basis` order."""
    sub = _block_occupations(kind, charge)[0][1:].astype(float)  # occupation before conversion
    k = np.arange(1, sub.size + 1, dtype=float)
    if kind == "degenerate":
        return 0.5 * np.sqrt(k * (sub + 1.0) * (sub + 2.0))
    return np.sqrt(k) * (sub + 1.0)


def hamiltonian_block(kind: OscillatorKind, charge: int, coupling: float = 1.0) -> np.ndarray:
    """One Hermitian block of the oscillator Hamiltonian.

    Rows/columns follow :func:`block_basis`.  Blocks are tridiagonal:
    turning one pump photon into a sub-harmonic pair moves one step down
    the pump index.
    """
    b = coupling * _block_couplings(kind, charge)
    return np.diag(1j * b, 1) + np.diag(-1j * b, -1)


def _sublattice_solve(couplings: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(sigma², U, MU)`` of the real zero-diagonal tridiagonal ``J`` with off-diagonal ``couplings``.

    ``J`` is bipartite.  Sublattice A holds the sites of the parity of the
    last site, B the others, and ``M = J_BA``.  ``J²`` restricted to A is
    the tridiagonal ``MᵀM = U diag(sigma²) Uᵀ``: over the A sites ``k`` its
    diagonal is ``b[k-1]² + b[k]²`` and its off-diagonal ``b[k] b[k+1]``
    (Golub and Kahan's link between a zero-diagonal tridiagonal and a
    bidiagonal SVD).  ``MU`` takes two shifted row scalings of ``U``.

    Only the columns the start site (the last one) sees are kept: the
    lowest ``k``, where ``k`` counts the columns ``j`` whose start-site
    weight from them up, ``sum_{i >= j} U[-1, i]²``, exceeds
    ``START_WEIGHT_TAIL``.  By Cauchy-Schwarz the dropped columns move an
    amplitude of a block started as ``c e_last`` by at most
    ``|c| sqrt(START_WEIGHT_TAIL)``.
    """
    d = couplings.size + 1
    p = (d - 1) % 2  # first A site
    padded = np.concatenate(([0.0], couplings, [0.0]))  # padded[k] = b[k-1]
    sq = padded * padded
    sigma2, u = eigh_tridiagonal(sq[p:d:2] + sq[p + 1::2], padded[p + 1:d - 1:2] * padded[p + 2:d:2])
    tail = np.cumsum(u[-1, ::-1] ** 2)[::-1]
    k = np.count_nonzero(tail > START_WEIGHT_TAIL)
    sigma2, u = sigma2[:k], u[:, :k].copy()  # a copy, so that the full U is freed
    b = couplings
    if p == 0:  # B site 2m + 1 sits between A sites m and m + 1
        mu = b[0::2, None] * u[:-1] + b[1::2, None] * u[1:]
    else:  # B site 2m sits between A sites m - 1 and m
        mu = b[0::2, None] * u
        mu[1:] += b[1::2, None] * u[:-1]
    return sigma2, u, mu


@dataclass(frozen=True)
class _BlockSolve:
    """The coupling-1 solve of one charge block, which depends only on ``(kind, charge)``; coupling scales time.

    ``eigvals``, ``u`` and ``mu`` hold only the eigenvector columns the start
    site sees, the lowest ones up to a start-site weight tail of
    ``START_WEIGHT_TAIL`` = 1e-30 (:func:`_sublattice_solve`).  The solves are
    memoized across runs (:func:`_shared_solve`), so every array is read-only.
    """

    couplings: np.ndarray     # H[k-1, k] = i couplings[k-1] at coupling 1
    on_a: slice               # sites of sublattice A (the start site's parity) ...
    on_b: slice               # ... and of B
    eigvals: np.ndarray       # sigma²: eigenvalues of J² on A, ascending, of the kept columns only
    sigma: np.ndarray         # sqrt(max(sigma², 0))
    inv_sigma: np.ndarray     # 1 / sigma, 0 on a zero mode
    u: np.ndarray             # eigenvectors of J² on A that the start site sees, rows on the A sites
    mu: np.ndarray            # J_BA u, rows on the B sites
    occ_a: np.ndarray         # rows 1, sub-harmonic and pump occupation, on the A sites
    occ_b: np.ndarray         # the same on the B sites
    pair_a: np.ndarray        # <block q-2 | a1² or a2 a3 | block q> per site, signed, on A but the last site
    pair_b: np.ndarray        # the same on B


@dataclass(frozen=True)
class _Block(_BlockSolve):
    """One charge block that starts as ``amp e_last``: a shared :class:`_BlockSolve` and the run's start vector."""

    amp: float                # initial amplitude |c| on the start site, the last one
    w0: np.ndarray            # |c| u[-1]: the start vector in the eigenbasis

    def columns(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Eigen-coordinates ``C = cos(sigma t) w0``, ``S = (sin(sigma t) / sigma) w0``, shape ``sigma.shape + shape(t)``.

        The block's amplitudes are ``a = U C`` on A and ``b = MU S`` on B.  On a zero mode
        (``sigma² <= 0`` from the solver) ``sin(sigma t) / sigma`` is taken as 0: it only ever
        meets ``MU``'s column of that mode, which vanishes, as ``||M u||² = sigma²``.  Elsewhere
        ``sigma >= 2e-162`` (``sigma²`` is a double), so ``1 / sigma`` is finite and
        ``sin(x) / sigma`` keeps full relative accuracy at small ``x``.
        """
        x = np.multiply.outer(self.sigma, t)
        w = self.w0.reshape(x.shape[:1] + (1,) * np.ndim(t))
        return np.cos(x) * w, np.sin(x) * self.inv_sigma.reshape(w.shape) * w

    def state(self, t: float) -> np.ndarray:
        """The real block vector at time ``t``, ``conj(g_last) g ⊙ [a on A, -i b on B]``.

        ``a = U C`` and ``b = MU S`` come from :meth:`columns`; with ``g_k = (-i)^k``
        the phase on site ``k``, ``-i`` on B included, is ``(-1)^floor(j / 2)``, ``j = last - k``.
        """
        c, s = self.columns(t)
        v = np.empty(self.couplings.size + 1)
        v[self.on_a], v[self.on_b] = self.u @ c, self.mu @ s
        j = np.arange(v.size)[::-1]
        return np.where(j // 2 % 2, -v, v)


#: the coupling-1 solves of the blocks solved so far, by ``(kind, charge)``; every coupling shares them
_solve_cache: dict[tuple[str, int], _BlockSolve] = {}


def _shared_solve(kind: OscillatorKind, charge: int) -> _BlockSolve:
    """The coupling-1 solve of the block of ``charge``, its arrays read-only, memoized across runs."""
    if (kind, charge) in _solve_cache:
        return _solve_cache[kind, charge]
    couplings = _block_couplings(kind, charge)
    sigma2, u, mu = _sublattice_solve(couplings)
    sigma = np.sqrt(np.maximum(sigma2, 0.0))
    inv_sigma = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > 0.0)
    p = couplings.size % 2
    on_a, on_b = slice(p, None, 2), slice(1 - p, None, 2)
    occ = np.stack((np.ones(couplings.size + 1), *_block_occupations(kind, charge)))  # 1, sub-harmonic, pump
    sub = occ[1]
    if kind == "degenerate":
        pair = np.sqrt(np.maximum(sub * (sub - 1.0), 0.0))
    else:
        pair = sub  # <m-1, m-1| a2 a3 |m, m> = m
    # Site k here meets site k of the block below, whose start site is one
    # lower, so A and B swap; the constant site phases of the two real
    # amplitudes multiply to +1 on this block's B sites and -1 on its A sites.
    solve = _BlockSolve(
        couplings, on_a, on_b, sigma2, sigma, inv_sigma, u, mu,
        occ[:, on_a], occ[:, on_b], -pair[on_a][:-1], pair[on_b],
    )
    for value in vars(solve).values():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
    _solve_cache[kind, charge] = solve
    return solve


def _solve_block(kind: OscillatorKind, charge: int, amp: float) -> _Block:
    """The block of ``charge`` that starts as ``amp e_last``, ``amp >= 0``, on its memoized solve."""
    solve = _shared_solve(kind, charge)
    return _Block(**vars(solve), amp=amp, w0=amp * solve.u[-1])


@dataclass
class EvolutionResult:
    """Time series of one oscillator run."""

    times: np.ndarray
    var_x: np.ndarray
    intensity_y: np.ndarray
    pump_n: np.ndarray
    charge: np.ndarray
    energy: np.ndarray
    norm: np.ndarray
    var_x_min_angle: np.ndarray


class BlockEvolution:
    """Exact propagator of one oscillator run, block by block.

    The blocks start from ``|c_K|``, the amplitudes of the zero-phase
    coherent pump; the pump phase enters only as ``e^{iK phi}`` on block 2K
    in :meth:`propagate` and as ``cos(phi)`` on the pair term of ``var_x``.
    In the gauge ``g_k = (-i)^k`` a block is a real zero-diagonal
    tridiagonal ``J``, so it is bipartite: sublattice A holds the sites of
    the start site's parity (the block's last site), B the others.  Starting
    from ``|c| e_last``, ``exp(-iJt)`` leaves ``cos(Jt) e_last`` on A and
    ``-i sin(Jt) e_last`` on B.  Both come from one eigensolve of ``J²`` on
    A, a tridiagonal of half the block size (:func:`_sublattice_solve`), of
    which only the columns the start site sees are kept.  So a block's state
    is a real vector with per-site signs, and a whole time grid is two real
    half-size GEMMs per block.
    :meth:`propagate` (states) and :meth:`observables` read the same
    sublattice amplitudes, and acceptance criteria 5 (the dense route) and
    6 (``<H²>``) check the states.  Every read-out sums over the blocks in one
    body, :meth:`_sums`, fed each block's eigen-coordinate columns: one per
    time in :meth:`observables`, five for ``var_x`` and its two derivatives at
    one time in :meth:`_var_x_tau_derivatives`.  Blocks whose initial weight
    is below 1e-18 are dropped.

    The blocks are solved at coupling 1 and read at ``kappa t``; ``kappa``
    also scales :meth:`energy_scale`, and ``kappa^k`` the k-th time derivative
    of ``var_x``, which :meth:`optimal_squeezing` never forms: it works in
    ``tau = kappa t``.  A block's solve depends on ``(kind, charge)`` only; N
    enters through ``|c_K|`` and the start vector ``w0``.  So the solves are kept,
    read-only, and reused by every later run of the same kind at any coupling
    (:func:`_shared_solve`): about 11 MiB for both kinds at N <= 121.
    """

    def __init__(self, cfg: OscillatorConfig):
        self.cfg = cfg
        self.blocks: dict[int, _Block] = {}
        for n_pump, c in enumerate(coherent_state(math.sqrt(cfg.pump_photons)).amps.real):
            if c * c >= 1e-18:
                self.blocks[2 * n_pump] = _solve_block(cfg.kind, 2 * n_pump, c)

    def propagate(self, t: float) -> dict[int, np.ndarray]:
        """The state at time ``t`` (negative allowed), block by block: ``e^{iK phi}`` times block 2K's real vector."""
        tau = self.cfg.coupling * t
        return {q: np.exp(0.5j * q * self.cfg.pump_phase) * blk.state(tau) for q, blk in self.blocks.items()}

    def _sums(self, count: int, columns) -> np.ndarray:
        """Sums over the blocks for ``count`` states, one row per quantity and one column per state.

        ``columns(blk)`` gives a block's eigen-coordinates ``(C, S)``, each
        ``(kept columns, count)``, of amplitudes ``a = U C`` on A and ``b = MU
        S`` on B.  The rows sum same-column products: norm², ``<n_sub>``
        (``<n1>``, or ``<n2> = <n3>``), ``<n_pump>``, the charge, the pair term
        ``P`` (``<a1²>`` / ``<a2 a3>``, charge ``q`` with the block below) and
        ``var_x - 1 = 2 <n_sub> - 2 cos(phi) P``, whose terms cancel block by block.
        """
        sums = np.zeros((6, count))
        pair_weight = 2.0 * math.cos(self.cfg.pump_phase)
        lower = None
        for q, blk in self.blocks.items():
            c, s = columns(blk)
            a, b = blk.u @ c, blk.mu @ s
            weights = blk.occ_a @ (a * a) + blk.occ_b @ (b * b)
            sums[:3] += weights
            sums[3] += q * weights[0]
            pair = blk.pair_a @ (lower[1] * a[:-1]) + blk.pair_b @ (lower[0] * b) if q - 2 in self.blocks else 0.0
            sums[4] += pair
            sums[5] += 2.0 * weights[1] - pair_weight * pair
            lower = a, b
        return sums

    def observables(self, times) -> EvolutionResult:
        """Observables on a time array: one :meth:`_sums` pass, two real half-size GEMMs per block.

        The pair sum is ``e^{i phi} P``, ``P`` real, so ``var_x = 1 + 2n - 2
        cos(phi) P`` and ``var_x_min_angle = 1 + 2n - 2|P|``.  Energy ``<H>``
        is 0 in every block at all times: the amplitudes are a phase times a
        real vector, so each bond term ``Im(conj(v[k-1]) v[k])`` vanishes.  It
        is reported as that exact 0, so its drift no longer tests the
        propagator; ``<H²>``, the squared :meth:`energy_scale`, does.
        """
        t = np.asarray(times, dtype=float)
        tau = self.cfg.coupling * t
        norm_sq, n_sub, n_pump, charge, pair, excess = self._sums(t.size, lambda blk: blk.columns(tau))
        return EvolutionResult(
            times=t,
            var_x=1.0 + excess,
            intensity_y=n_sub,  # <n1>, or <c† c> of the normalized composite mode
            pump_n=n_pump,
            charge=charge,
            energy=np.zeros(t.size),
            norm=np.sqrt(norm_sq),
            var_x_min_angle=1.0 + 2.0 * n_sub - 2.0 * np.abs(pair),
        )

    def observables_at(self, t: float) -> dict[str, float]:
        """The fields of a one-point :meth:`observables` record, as floats."""
        return {k: float(v[0]) for k, v in vars(self.observables([t])).items()}

    def var_x_at(self, t: float) -> float:
        return self.observables_at(t)["var_x"]

    def var_x_derivatives(self, t: float) -> tuple[float, float, float]:
        """``var_x`` and its first and second time derivatives at one time, as floats, in one pass over the blocks.

        They are those of :meth:`_var_x_tau_derivatives` at ``tau = kappa t``,
        times ``kappa`` and ``kappa²``.
        """
        kappa = self.cfg.coupling
        value, slope, curvature = self._var_x_tau_derivatives(kappa * t)[:3]
        return value, kappa * slope, kappa * kappa * curvature

    def _var_x_tau_derivatives(self, tau: float) -> tuple[float, float, float, float, float]:
        """``var_x``, its first two ``tau``-derivatives, ``intensity_y`` and ``var_x_min_angle`` at one ``tau``, as floats.

        One :meth:`_sums` pass of five columns per block, ``x0, x1, x2, x0 + x1,
        x0 + x2``, with ``x_k = (S_k, C_k)`` the k-th derivative of the
        eigen-coordinates in ``u = tau / h``: ``d/du (S, C) = h (C, -sigma² S)``.
        ``var_x - 1`` is a quadratic form in the amplitudes, pair terms
        included, so by polarization its sums ``s0 .. s4`` give the value
        ``s0``, the slope ``s3 - s0 - s1`` and the curvature ``2 s1 + s4 - s0
        - s2``, in ``u``.  ``h = 1 / sqrt(max(N, 1))``, the pump's time unit: in
        ``tau`` itself ``x1`` and ``x2`` grow like ``sqrt(N)`` and ``N`` times
        ``x0``, and the differences round that much worse.
        """
        h = 0.2 * _first_window(self.cfg)

        def columns(blk):
            c0, s0 = blk.columns(tau)
            e = -h * blk.eigvals
            s1, c1 = h * c0, e * s0
            s2, c2 = h * c1, e * s1
            return np.array([c0, c1, c2, c0 + c1, c0 + c2]).T, np.array([s0, s1, s2, s0 + s1, s0 + s2]).T

        _, n_sub, _, _, pair, q = self._sums(5, columns)
        slope, curvature = (q[3] - q[0] - q[1]) / h, (2.0 * q[1] + q[4] - q[0] - q[2]) / (h * h)
        n = float(n_sub[0])
        return float(1.0 + q[0]), float(slope), float(curvature), n, float(1.0 + 2.0 * n - 2.0 * abs(pair[0]))

    def energy_scale(self) -> float:
        """||H psi0||, the natural scale for energy checks.

        Each block starts as ``c e_last``, so ``||H init||² = kappa² |c|² couplings[-1]²``;
        its square is ``<H²>``, which the propagation conserves.
        """
        return self.cfg.coupling * math.sqrt(sum(
            blk.amp ** 2 * blk.couplings[-1] ** 2 for blk in self.blocks.values() if blk.couplings.size
        ))

    def optimal_squeezing(self) -> OptimalSqueezing:
        """Locate the time of maximal sub-harmonic squeezing.

        The search runs in ``tau = kappa t`` and divides by ``kappa`` once, for
        ``t_sq`` and the scan's times.  It scans ``GRID_POINTS`` = 32 times over
        ``[0, 5 / sqrt(max(N, 1))]`` (:func:`_first_window`, the undepleted-pump
        timescale), doubling the window up to ``MAX_EXTENSIONS``
        times until the lowest ``var_x`` is below ``1 - 1e-12`` at an interior
        point ``t_i``; then it solves ``var_x'(t) = 0`` in ``(t_{i-1}, t_{i+1})``
        by Newton steps on the analytic ``tau``-derivatives of ``var_x``.  A step
        is taken when ``var_x'' > 0`` and it stays inside the bracket, which
        shrinks by the sign of ``var_x'`` on every pass; otherwise the bracket is
        bisected.  It stops when ``var_x'`` is 0, a Newton step rounds to zero
        or a step is at most 1e-12 of ``tau``, after at most
        ``MAX_NEWTON_PASSES`` passes.  ``var_min`` is
        ``var_x`` of the last pass, at most that last step from ``t_sq``, where
        ``var_x'`` vanishes, so the two differ only at second order.  The
        intensity and ``var_x_min_angle`` come from the same pass, at first
        order.  Scans and passes sum through one body, :meth:`_sums`, so a
        scan's ``var_x`` and a pass's value at the same time round alike.  This
        propagator serves the scans and the refinement, and the result keeps no
        reference to it.

        The coarse scan can step over the shallow early dip of ``var_x`` that a
        pump phase near ``pi/2`` leaves, at about ``t = cos(phi) / (2 kappa
        sqrt(N))``.  So when the scan's lowest ``var_x`` is at ``t = 0`` or not
        below ``1 - 1e-12``, ``var_x'`` is negative at 0 (``cos(phi) > 0``,
        ``N > 0``) and positive at the first scan time ``t_1``, the search
        refines in ``(0, t_1)`` instead.

        A run whose angle-optimized variance never drops below ``1 - 1e-12`` on
        the first window (vacuum pump) is stationary and returns ``t_sq = 0``,
        ``var_min = 1``.  Otherwise ``ValueError`` is raised when the scan's
        lowest ``var_x`` is at ``t = 0`` or not below ``1 - 1e-12`` and the
        slopes do not bracket ``(0, t_1)`` as above, or when the refined
        ``var_min`` is not below ``1 - 1e-12`` (at ``phi = pi/2`` the dip is
        about 1e-33 deep).  No interior minimum after the doublings raises
        ``RuntimeError``.
        """
        kappa = self.cfg.coupling
        tau_max = _first_window(self.cfg)
        for _ in range(MAX_EXTENSIONS + 1):
            tau = np.linspace(0.0, tau_max, GRID_POINTS)
            result = self.observables(tau / kappa)
            i = int(np.argmin(result.var_x))
            if i == 0 or result.var_x[i] > 1.0 - 1e-12:
                if np.min(result.var_x_min_angle) > 1.0 - 1e-12:
                    # stationary run (vacuum pump): nothing to refine
                    return OptimalSqueezing(0.0, 1.0, phase_resolution(0.0, 1.0), 1.0, 0.0, result)
                lo, hi = 0.0, float(tau[1])
                if not self._var_x_tau_derivatives(lo)[1] < 0.0 < self._var_x_tau_derivatives(hi)[1]:
                    raise self._away_from_x(tau_max / kappa)
                tau_sq = 0.5 * hi
                break
            if i < GRID_POINTS - 1:
                lo, tau_sq, hi = (float(x) for x in tau[i - 1:i + 2])
                break
            tau_max *= 2.0
        else:
            raise RuntimeError("no interior squeezing minimum found; window extension exhausted")

        for _ in range(MAX_NEWTON_PASSES):
            var_min, slope, curvature, intensity, var_min_angle = self._var_x_tau_derivatives(tau_sq)
            if slope == 0.0:
                break
            if slope > 0.0:
                hi = tau_sq
            else:
                lo = tau_sq
            newton = tau_sq - slope / curvature if curvature > 0.0 else math.nan
            if newton == tau_sq:  # the step rounds to zero: converged at tau_sq
                break
            tau_new = newton if lo < newton < hi else 0.5 * (lo + hi)
            converged = abs(tau_new - tau_sq) <= 1e-12 * tau_sq
            tau_sq = tau_new
            if converged:
                break
        if var_min > 1.0 - 1e-12:
            raise self._away_from_x(tau_max / kappa)
        return OptimalSqueezing(
            t_sq=tau_sq / kappa,
            var_min=var_min,
            resolution=phase_resolution(intensity, var_min),
            var_min_angle=var_min_angle,
            s_min_angle=phase_resolution(intensity, var_min_angle).s,
            evolution=result,
        )

    def _away_from_x(self, t_max: float) -> ValueError:
        return ValueError(
            f"pump phase {self.cfg.pump_phase} squeezes only away from the x quadrature: var_x never "
            f"drops below 1 on [0, {t_max:.6g}]; use a pump phase near 0"
        )


def evolve(cfg: OscillatorConfig, t_grid) -> EvolutionResult:
    """Propagate and record observables on an ascending time grid from 0."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1 or t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
        raise ValueError("t_grid must be 1-d, start at 0, and be strictly ascending")
    return BlockEvolution(cfg).observables(t)


def _first_window(cfg: OscillatorConfig) -> float:
    """``5 / sqrt(max(N, 1))``, the undepleted-pump timescale in ``tau = coupling t``: the end of the first scan."""
    return 5.0 / math.sqrt(max(cfg.pump_photons, 1.0))


def default_t_max(cfg: OscillatorConfig) -> float:
    """The undepleted-pump timescale in ``t``, :func:`_first_window` over the coupling.

    It ends the ``simulate`` command's default time grid and the first window the optimum search scans.
    """
    return _first_window(cfg) / cfg.coupling


@dataclass
class OptimalSqueezing:
    """Refined squeezing optimum of one run.

    ``resolution`` is the phase resolution at ``t_sq`` with the fixed
    ``x``-quadrature; ``s_min_angle`` re-optimizes the quadrature angle at
    the same time (the two coincide up to rounding for zero pump phase).
    ``evolution`` is the final window scan, ``GRID_POINTS`` = 32 times that
    only bracket the optimum: ``t_sq`` lies strictly inside it, before its
    second time when the search refined in ``(0, t_1)``.  For a trajectory,
    evaluate :meth:`BlockEvolution.observables` on a grid of your own.
    """

    t_sq: float
    var_min: float
    resolution: PhaseResolution
    var_min_angle: float
    s_min_angle: float
    evolution: EvolutionResult


def find_optimal_squeezing(cfg: OscillatorConfig) -> OptimalSqueezing:
    """Locate the time of maximal sub-harmonic squeezing: :meth:`BlockEvolution.optimal_squeezing` of a new propagator.

    A 32-point window scan brackets the minimum of ``var_x`` and Newton steps
    refine it; a pump phase near ``pi/2``, whose shallow dip the scan steps
    over, is refined in ``(0, t_1)``.  ``ValueError`` when ``var_x`` does not
    drop below ``1 - 1e-12`` (see the method for the exact condition),
    ``RuntimeError`` when no interior minimum is found.
    """
    return BlockEvolution(cfg).optimal_squeezing()


# ---------------------------------------------------------------------------
# dense reference propagation (no charge decomposition)

def _ladder_sparse(dim: int) -> sparse.csr_matrix:
    return sparse.diags(np.sqrt(np.arange(1, dim, dtype=float)), 1, format="csr")


def dense_evolve(cfg: OscillatorConfig, times):
    """Full-tensor propagation via sparse Krylov exponentials.

    Returns ``(dims, states)`` where ``states[i]`` is the dense amplitude
    tensor at ``times[i]``; the mode dimensions (sub-harmonics first, pump
    last) cover every state reachable from the truncated pump.  This is
    the oracle route: it shares nothing with the charge-block propagator
    except the Hamiltonian definition.
    """
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
        raise ValueError("times must be 1-d, start at 0, and be strictly ascending")
    pump_vec = coherent_state(math.sqrt(cfg.pump_photons) * np.exp(1j * cfg.pump_phase)).amps
    d_pump = pump_vec.size
    dims = (2 * d_pump - 1, d_pump) if cfg.kind == "degenerate" else (d_pump, d_pump, d_pump)
    kappa = cfg.coupling

    if cfg.kind == "degenerate":
        a1 = _ladder_sparse(dims[0])
        b = _ladder_sparse(dims[1])
        conv = sparse.kron(a1.T @ a1.T, b, format="csr")
        h = 1j * 0.5 * kappa * (conv - conv.conj().T)
        psi = np.zeros(dims[0], dtype=np.complex128)
        psi[0] = 1.0
        psi = np.kron(psi, pump_vec)
    else:
        a2 = _ladder_sparse(dims[0])
        a3 = _ladder_sparse(dims[1])
        b = _ladder_sparse(dims[2])
        conv = sparse.kron(sparse.kron(a2.T, a3.T), b, format="csr")
        h = 1j * kappa * (conv - conv.conj().T)
        one = np.zeros(dims[0], dtype=np.complex128)
        one[0] = 1.0
        psi = np.kron(np.kron(one, one), pump_vec)

    states = [psi.reshape(dims).copy()]
    gen = -1j * h
    for dt in np.diff(t):
        psi = expm_multiply(gen * float(dt), psi)
        states.append(psi.reshape(dims).copy())
    return dims, states


def blocks_to_dense(cfg: OscillatorConfig, vectors: dict[int, np.ndarray], dims) -> np.ndarray:
    """Scatter block vectors into a dense tensor with the given dims."""
    out = np.zeros(dims, dtype=np.complex128)
    for q, v in vectors.items():
        for idx, occ in enumerate(block_basis(cfg.kind, q)):
            out[occ] = v[idx]
    return out
