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
blocks of their real amplitudes.  A dense full-tensor propagator on a real
generator (no charge decomposition, no frame rotation; :func:`dense_evolve`)
is included as the independent cross-check route.

With the pump amplitude real positive, the squeezed quadrature of the
sub-harmonic is ``-i(a† - a)``, ``QuadratureSpec(mode, -pi/2)`` of
:mod:`squeezelab.fock` (for the signal/idler pair, that quadrature of the
normalized composite mode ``i(a2 - a3)/sqrt(2)``); for small
``sqrt(N) t`` its variance follows the undepleted-pump law
``exp(-2 sqrt(N) t)``.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from typing import Literal

import numpy as np
from scipy.linalg import eigh_tridiagonal

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
PHASE_DIGITS = 6  # correct decimals, in radians, that evolve asks of the largest eigenphase


def minimize_scalar(*args, **kwargs):
    """``scipy.optimize.minimize_scalar``, imported on its first call.

    The package never calls it; ``perfbench/tracing.py`` patches this name to
    count optimizer work.  Importing ``scipy.optimize`` up front would cost
    every process about 13 MiB and 0.1 s.
    """
    from scipy.optimize import minimize_scalar as minimize

    return minimize(*args, **kwargs)


@dataclass(frozen=True)
class OscillatorConfig:
    """Lossless oscillator run parameters.

    ``pump_photons`` is the mean photon number of the initial coherent
    pump (0 is allowed and gives a stationary vacuum run); ``pump_phase``
    is keyword-only.  Time is in units of ``1/kappa``, so the coupling is no
    parameter: both Hamiltonians are linear in it.
    """

    kind: OscillatorKind
    pump_photons: float
    _: KW_ONLY
    pump_phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("degenerate", "nondegenerate"):
            raise ValueError(f"kind must be 'degenerate' or 'nondegenerate', got {self.kind!r}")
        for name in ("pump_photons", "pump_phase"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.pump_photons < 0.0:
            raise ValueError(f"pump photon number must be >= 0, got {self.pump_photons}")


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
    return list(zip(*(sub,) * (1 if kind == "degenerate" else 2), pump))


def _block_couplings(kind: OscillatorKind, charge: int) -> np.ndarray:
    """Off-diagonal ``b`` of one block, ``H[k-1, k] = i b[k-1]`` in :func:`block_basis` order."""
    sub = _block_occupations(kind, charge)[0][1:].astype(float)  # occupation before conversion
    k = np.arange(1, sub.size + 1, dtype=float)
    if kind == "degenerate":
        return 0.5 * np.sqrt(k * (sub + 1.0) * (sub + 2.0))
    return np.sqrt(k) * (sub + 1.0)


def hamiltonian_block(kind: OscillatorKind, charge: int) -> np.ndarray:
    """One Hermitian block of the oscillator Hamiltonian.

    Rows/columns follow :func:`block_basis`.  Blocks are tridiagonal:
    turning one pump photon into a sub-harmonic pair moves one step down
    the pump index.
    """
    b = _block_couplings(kind, charge)
    return np.diag(1j * b, 1) + np.diag(-1j * b, -1)


def _sublattice_solve(couplings: np.ndarray) -> tuple[slice, slice, np.ndarray, np.ndarray, np.ndarray]:
    """``(on_a, on_b, sigma², U, MU)`` of the real zero-diagonal tridiagonal ``J`` with off-diagonal ``couplings``.

    ``J`` is bipartite.  Sublattice A holds the sites of the parity of the
    last site (the slice ``on_a``), B the others (``on_b``), and ``M = J_BA``.
    ``J²`` restricted to A is the tridiagonal ``MᵀM = U diag(sigma²) Uᵀ``: over
    the A sites ``k`` its diagonal is ``b[k-1]² + b[k]²`` and its off-diagonal
    ``b[k] b[k+1]`` (Golub and Kahan's link between a zero-diagonal tridiagonal
    and a bidiagonal SVD).  ``MU`` takes two shifted row scalings of ``U``.

    A block of an odd number of sites has one A site more than it has B
    sites, so ``M`` has a one-dimensional null space and ``MᵀM`` exactly one
    zero eigenvalue.  ``MᵀM`` is positive semidefinite, so that eigenvalue is
    its lowest, column 0 of the ascending solve; the others are the squared
    non-zero singular values of ``M``, far above the solver's rounding of
    about ``eps ||MᵀM||``.  The solver returns the zero as a rounding-sized
    ``sigma²`` (5.8e-13 for the charge-52 block), which would turn the mode at
    a spurious ``sigma`` near 1e-6 and drain norm from A as ``t²``; it is set to
    exactly 0.

    Only the columns the start site (the last one) sees are kept: the
    lowest ``k``, where ``k`` counts the columns ``j`` whose start-site
    weight from them up, ``sum_{i >= j} U[-1, i]²``, exceeds
    ``START_WEIGHT_TAIL``.  By Cauchy-Schwarz the dropped columns move an
    amplitude of a block started as ``c e_last`` by at most
    ``|c| sqrt(START_WEIGHT_TAIL)``.
    """
    b = couplings
    p = b.size % 2  # first A site
    on_a, on_b = slice(p, None, 2), slice(1 - p, None, 2)
    sq = np.concatenate(([0.0], b * b, [0.0]))  # sq[k] = b[k-1]², 0 past either end
    sigma2, u = eigh_tridiagonal((sq[:-1] + sq[1:])[on_a], (b[:-1] * b[1:])[on_a])
    if p == 0:  # an odd number of sites: column 0 is the structural zero mode
        sigma2[0] = 0.0
    tail = np.cumsum(u[-1, ::-1] ** 2)[::-1]
    k = np.count_nonzero(tail > START_WEIGHT_TAIL)
    sigma2, u = sigma2[:k], u[:, :k].copy()  # a copy, so that the full U is freed
    if p == 0:  # B site 2m + 1 sits between A sites m and m + 1
        mu = b[0::2, None] * u[:-1] + b[1::2, None] * u[1:]
    else:  # B site 2m sits between A sites m - 1 and m
        mu = b[0::2, None] * u
        mu[1:] += b[1::2, None] * u[:-1]
    return on_a, on_b, sigma2, u, mu


def _eigen_columns(sigma: np.ndarray, inv_sigma: np.ndarray, w0: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
    """Eigen-coordinates ``C = cos(sigma t) w0``, ``S = (sin(sigma t) / sigma) w0``, shape ``sigma.shape + shape(t)``.

    ``w0`` is a start vector in the eigenbasis, of ``sigma``'s shape.  On a zero mode
    (``sigma = 0``) ``sin(sigma t) / sigma`` is taken as 0: it only ever meets ``MU``'s
    column of that mode, which vanishes, as ``||M u||² = sigma²``.  Elsewhere
    ``sigma >= 2e-162`` (``sigma²`` is a double), so ``1 / sigma`` is finite and
    ``sin(x) / sigma`` keeps full relative accuracy at small ``x``.
    """
    x = np.multiply.outer(sigma, t)
    w = w0.reshape(w0.shape + (1,) * np.ndim(t))
    return np.cos(x) * w, np.sin(x) * inv_sigma.reshape(w.shape) * w


def _grid_eigen_columns(sigma: np.ndarray, inv_sigma: np.ndarray, w0: np.ndarray, step: float,
                        points: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_eigen_columns` at the ``points`` times ``j step``, built from a rotation table.

    ``e^{i sigma j step}`` is the product of the factors ``e^{i sigma 2^m step}``
    over the set bits ``m`` of ``j``: stage ``m`` multiplies the first ``2^m``
    entries by its factor to fill the next ``2^m``.  So a column costs
    ``ceil(log2 points)`` ``cos``/``sin`` pairs, not ``points``; the rest is
    complex products.  ``2^m step`` is exact, so the phases of entry ``j`` round
    by at most ``eps/2`` of ``sigma j step`` in all; the entry also carries the
    rounding of at most ``ceil(log2 points)`` factors and of one product fewer.
    On a zero mode every factor is exactly 1 and ``S`` exactly 0.  ``points >= 1``.
    """
    stages = (points - 1).bit_length()
    x = np.multiply.outer(sigma, step * 2.0 ** np.arange(stages))  # sigma 2^m step
    factors = np.cos(x) + 1j * np.sin(x)
    table = np.empty(sigma.shape + (points,), dtype=complex)
    table[..., 0] = 1.0
    for m in range(stages):
        filled = 2**m
        n = min(filled, points - filled)
        np.multiply(table[..., :n], factors[..., m, None], out=table[..., filled:filled + n])
    return table.real * w0[..., None], table.imag * (inv_sigma * w0)[..., None]


@dataclass(frozen=True)
class _BlockSolve:
    """The solve of one charge block, which depends only on ``(kind, charge)``.

    Every array is a read-only view into the block's :class:`_Slab`, trimmed to
    the block's own A and B sites and its own kept columns: the lowest ones up
    to a start-site weight tail of ``START_WEIGHT_TAIL`` = 1e-30
    (:func:`_sublattice_solve`).  No block holds a copy of its own.  A run
    passes its start amplitude to :meth:`columns` and :meth:`state`.
    """

    couplings: np.ndarray     # H[k-1, k] = i couplings[k-1]
    on_a: slice               # sites of sublattice A (the start site's parity) ...
    on_b: slice               # ... and of B
    eigvals: np.ndarray       # sigma²: eigenvalues of J² on A, ascending, of the kept columns only
    sigma: np.ndarray         # sqrt(max(sigma², 0))
    inv_sigma: np.ndarray     # 1 / sigma, 0 on a zero mode
    u: np.ndarray             # eigenvectors of J² on A that the start site sees, rows on the A sites
    mu: np.ndarray            # J_BA u, rows on the B sites

    def columns(self, t, amp: float) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_eigen_columns` of the start vector ``amp e_last``, ``w0 = amp u[-1]``.

        The block's amplitudes are ``a = U C`` on A and ``b = MU S`` on B.
        """
        return _eigen_columns(self.sigma, self.inv_sigma, amp * self.u[-1], t)

    def state(self, t: float, amp: float) -> np.ndarray:
        """The real vector at ``t`` of the block started as ``amp e_last``, ``conj(g_last) g ⊙ [a on A, -i b on B]``.

        ``a = U C`` and ``b = MU S`` come from :meth:`columns`; with ``g_k = (-i)^k``
        the phase on site ``k``, ``-i`` on B included, is ``(-1)^floor(j / 2)``, ``j = last - k``.
        """
        c, s = self.columns(t, amp)
        v = np.empty(self.couplings.size + 1)
        v[self.on_a], v[self.on_b] = self.u @ c, self.mu @ s
        j = np.arange(v.size)[::-1]
        return np.where(j // 2 % 2, -v, v)


@dataclass(frozen=True)
class _Slab:
    """The solves of the ``SLAB`` = 16 blocks of charges ``2K``, ``K`` in ``[16 j, 16 j + 16)``, stacked.

    Row ``i`` of every array is the block of charge ``charges[i] = 2 (16 j + i)``.
    The arrays are zero-padded to the slab's widest block (``8 j + 8`` sites on
    either sublattice, ``16 j + 15`` couplings) and to the most columns any of
    its blocks keeps: a padded column has ``sigma = 0`` and start weight 0, and
    a padded site has zero amplitude, occupation and pair weight, so padding
    adds exact zeros to every read-out.  ``blocks`` holds each block's
    :class:`_BlockSolve`, views trimmed to its own sites and columns, so the
    slab is the only store; the occupation and pair rows only the read-outs
    use stay in the slab.  Every array is read-only.  A run reads only the rows
    of the blocks it keeps (:attr:`BlockEvolution.slabs`).
    """

    charges: np.ndarray       # (16,)
    couplings: np.ndarray     # (16, couplings): each block's, zero past its own
    eigvals: np.ndarray       # (16, columns): sigma² of the kept columns, 0 past them
    sigma: np.ndarray         # (16, columns)
    inv_sigma: np.ndarray     # (16, columns)
    start: np.ndarray         # (16, columns): u's start-site row, u[-1] of each block
    u: np.ndarray             # (16, sites, columns), rows on the A sites
    mu: np.ndarray            # (16, sites, columns), rows on the B sites
    occ_a: np.ndarray         # (16, 3, sites): rows 1, sub-harmonic and pump occupation, on A
    occ_b: np.ndarray         # (16, 3, sites): the same on B
    pair_a: np.ndarray        # (16, 1, sites): <block q-2 | a1² or a2 a3 | block q> per site, signed, on A
    pair_b: np.ndarray        # (16, 1, sites): the same on B; 0 on each block's last A site and past its sites
    blocks: tuple[_BlockSolve, ...]

    def columns(self, rows: slice, amps: np.ndarray, t) -> tuple[np.ndarray, np.ndarray]:
        """:func:`_eigen_columns` of blocks ``rows`` started as ``amps[i] e_last``, ``(rows, columns) + shape(t)``."""
        return _eigen_columns(self.sigma[rows], self.inv_sigma[rows], amps[:, None] * self.start[rows], t)

    def grid_columns(self, rows: slice, amps: np.ndarray, step: float, points: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`columns` at the times ``j step``, ``j < points``: :func:`_grid_eigen_columns`' rotation table."""
        return _grid_eigen_columns(self.sigma[rows], self.inv_sigma[rows], amps[:, None] * self.start[rows], step,
                                   points)


SLAB = 16  # charge blocks per memo entry; the read-outs sum over slabs, not blocks

#: the slabs solved so far, by ``(kind, j)``; every run of that kind shares them
_solve_cache: dict[tuple[str, int], _Slab] = {}


def _shared_slab(kind: OscillatorKind, j: int) -> _Slab:
    """Slab ``j``: all 16 of its blocks solved, the arrays read-only, memoized across runs."""
    if (kind, j) in _solve_cache:
        return _solve_cache[kind, j]
    charges = 2 * np.arange(SLAB * j, SLAB * (j + 1))
    couplings = [_block_couplings(kind, int(q)) for q in charges]
    solves = [_sublattice_solve(b) for b in couplings]
    sites, columns = solves[-1][3].shape[0], max(solve[2].size for solve in solves)  # the last block is widest
    eigvals, start = np.zeros((SLAB, columns)), np.zeros((SLAB, columns))
    u, mu = np.zeros((SLAB, sites, columns)), np.zeros((SLAB, sites, columns))
    occ_a, occ_b = np.zeros((SLAB, 3, sites)), np.zeros((SLAB, 3, sites))
    pair_a, pair_b = np.zeros((SLAB, 1, sites)), np.zeros((SLAB, 1, sites))
    padded = np.zeros((SLAB, couplings[-1].size))
    for i, (q, b, (on_a, on_b, sigma2, ui, mui)) in enumerate(zip(charges, couplings, solves)):
        (na, k), nb = ui.shape, mui.shape[0]
        padded[i, :b.size], eigvals[i, :k], start[i, :k] = b, sigma2, ui[-1]
        u[i, :na, :k], mu[i, :nb, :k] = ui, mui
        occ = np.stack((np.ones(b.size + 1), *_block_occupations(kind, int(q))))  # 1, sub-harmonic, pump
        occ_a[i, :, :na], occ_b[i, :, :nb] = occ[:, on_a], occ[:, on_b]
        sub = occ[1]
        if kind == "degenerate":
            pair = np.sqrt(np.maximum(sub * (sub - 1.0), 0.0))
        else:
            pair = sub  # <m-1, m-1| a2 a3 |m, m> = m
        # Site k here meets site k of the block below, whose start site is one
        # lower, so A and B swap; the constant site phases of the two real
        # amplitudes multiply to +1 on this block's B sites and -1 on its A sites.
        pair_a[i, 0, :na - 1], pair_b[i, 0, :nb] = -pair[on_a][:-1], pair[on_b]
    sigma = np.sqrt(np.maximum(eigvals, 0.0))
    inv_sigma = np.divide(1.0, sigma, out=np.zeros_like(sigma), where=sigma > 0.0)
    arrays = (charges, padded, eigvals, sigma, inv_sigma, start, u, mu, occ_a, occ_b, pair_a, pair_b)
    for array in arrays:
        array.flags.writeable = False
    blocks = tuple(
        _BlockSolve(padded[i, :b.size], on_a, on_b, eigvals[i, :sigma2.size], sigma[i, :sigma2.size],
                    inv_sigma[i, :sigma2.size], u[i, :len(ui), :sigma2.size], mu[i, :len(mui), :sigma2.size])
        for i, (b, (on_a, on_b, sigma2, ui, mui)) in enumerate(zip(couplings, solves))
    )
    slab = _solve_cache[kind, j] = _Slab(*arrays, blocks)
    return slab


def _shared_solve(kind: OscillatorKind, charge: int) -> _BlockSolve:
    """The solve of the block of even ``charge``, a read-only view into its memoized slab."""
    return _shared_slab(kind, charge // (2 * SLAB)).blocks[charge // 2 % SLAB]


def _below(x: np.ndarray, before: np.ndarray) -> np.ndarray:
    """``x`` moved one block along the batch axis: entry ``i`` is block ``i - 1``, entry 0 ``before``, zero-padded."""
    out = np.zeros_like(x)
    out[1:] = x[:-1]
    out[0, :before.shape[0]] = before
    return out


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
    is a real vector with per-site signs.
    :meth:`propagate` (states) and :meth:`observables` read the same
    sublattice amplitudes, and acceptance criteria 5 (the dense route) and
    6 (``<H²>``) check the states.  Every read-out sums over the run's slabs
    of 16 consecutive blocks (:class:`_Slab`) in one body, :meth:`_sums`, fed
    each slab's stacked eigen-coordinate columns: one per time in
    :meth:`observables` and :meth:`scan`, five for ``var_x`` and its two
    derivatives at one time in :meth:`_var_x_tau_derivatives`.  A whole time
    grid is two real batched half-size GEMMs per slab.  :meth:`scan`, the
    optimum search's window scan on a uniform grid from 0, builds its columns
    from a rotation table, ``ceil(log2 n)`` ``cos``/``sin`` pairs per column
    for ``n`` times, and agrees with :func:`evolve` on the same times to
    rounding; :meth:`observables` takes ``cos``/``sin`` of every time, so
    :func:`evolve` is unchanged on any grid.  Blocks whose initial weight is
    below 1e-18 are dropped.

    A block's solve depends on ``(kind, charge)`` only; N enters through
    ``|c_K|`` alone.  So the solves are kept, read-only, and reused by every
    later run of the same kind, a slab of 16 at a time (:func:`_shared_slab`).
    A run holds the shared solves themselves: ``blocks``, each kept block's
    view into its slab, and ``slabs``, every slab from that of the lowest kept
    block to that of the highest, each with its live rows (a slice: the kept
    blocks, so only the first and last slab are cut) and their start
    amplitudes.  The read-outs run those rows only.  ``amps`` holds the start
    amplitudes ``|c_K|`` by charge.
    """

    def __init__(self, cfg: OscillatorConfig):
        self.cfg = cfg
        pump = coherent_state(math.sqrt(cfg.pump_photons)).amps.real
        self.amps: dict[int, float] = {2 * k: c for k, c in enumerate(pump) if c * c >= 1e-18}
        lo, hi = min(self.amps) // 2, max(self.amps) // 2 + 1  # the kept blocks, charges 2K with lo <= K < hi
        start = np.zeros(hi)
        start[[q // 2 for q in self.amps]] = list(self.amps.values())
        rows = {j: slice(max(lo - SLAB * j, 0), min(hi - SLAB * j, SLAB))
                for j in range(lo // SLAB, (hi - 1) // SLAB + 1)}
        self.slabs: list[tuple[_Slab, slice, np.ndarray]] = [
            (_shared_slab(cfg.kind, j), r, start[SLAB * j + r.start:SLAB * j + r.stop]) for j, r in rows.items()
        ]
        self.blocks: dict[int, _BlockSolve] = {q: _shared_solve(cfg.kind, q) for q in self.amps}

    def propagate(self, t: float) -> dict[int, np.ndarray]:
        """The state at time ``t`` (negative allowed), block by block: ``e^{iK phi}`` times block 2K's real vector."""
        return {q: np.exp(0.5j * q * self.cfg.pump_phase) * self.blocks[q].state(t, c) for q, c in self.amps.items()}

    def _sums(self, count: int, columns) -> np.ndarray:
        """Sums over the blocks for ``count`` states, one row per quantity and one column per state.

        ``columns(slab, rows, amps)`` gives the eigen-coordinates ``(C, S)`` of
        the slab's live blocks ``rows`` started as ``amps[i] e_last``, each
        ``(rows, columns, count)``, of amplitudes ``a = U C`` on A and ``b = MU
        S`` on B.  The rows sum same-column products: norm², ``<n_sub>``
        (``<n1>``, or ``<n2> = <n3>``), ``<n_pump>``, the charge, the pair
        term ``P`` (``<a1²>`` / ``<a2 a3>``, charge ``q`` with the block below,
        one step back along the slab; the first live block's is the last block
        of the slab before, or none: a block below the run's first is dropped,
        at amplitude 0) and
        ``var_x - 1 = 2 <n_sub> - 2 cos(phi) P``, whose terms cancel block by
        block before the sum over blocks.
        """
        sums = np.zeros((6, count))
        pair_weight = 2.0 * math.cos(self.cfg.pump_phase)
        last_a = last_b = np.zeros((0, count))  # the amplitudes of the block below the slab
        for slab, rows, amps in self.slabs:
            c, s = columns(slab, rows, amps)
            a, b = slab.u[rows] @ c, slab.mu[rows] @ s
            weights = slab.occ_a[rows] @ (a * a) + slab.occ_b[rows] @ (b * b)
            pair = (slab.pair_a[rows] @ (_below(b, last_b) * a) + slab.pair_b[rows] @ (_below(a, last_a) * b))[:, 0]
            sums[:3] += weights.sum(axis=0)
            sums[3] += slab.charges[rows] @ weights[:, 0]
            sums[4] += pair.sum(axis=0)
            sums[5] += (2.0 * weights[:, 1] - pair_weight * pair).sum(axis=0)
            last_a, last_b = a[-1], b[-1]
        return sums

    def observables(self, times) -> EvolutionResult:
        """Observables on a time array: one :meth:`_sums` pass, two real batched half-size GEMMs per slab.

        The pair sum is ``e^{i phi} P``, ``P`` real, so ``var_x = 1 + 2n - 2
        cos(phi) P`` and ``var_x_min_angle = 1 + 2n - 2|P|``.  Energy ``<H>``
        is 0 in every block at all times: the amplitudes are a phase times a
        real vector, so each bond term ``Im(conj(v[k-1]) v[k])`` vanishes.  It
        is reported as that exact 0, so its drift no longer tests the
        propagator; ``<H²>``, the squared :meth:`energy_scale`, does.
        """
        t = np.asarray(times, dtype=float)
        return self._record(t, self._sums(t.size, lambda slab, rows, amps: slab.columns(rows, amps, t)))

    def scan(self, t: np.ndarray) -> EvolutionResult:
        """:meth:`observables` on a uniform grid from 0, ``t = np.linspace(0, T, n)``.

        This is the optimum search's window scan.  Its eigen-coordinates come
        from the rotation table of the grid's step ``T / (n - 1)``
        (:func:`_grid_eigen_columns`), ``ceil(log2 n)`` ``cos``/``sin`` pairs per
        column instead of ``n``, and agree with :meth:`observables`' to rounding.
        """
        step = t[-1] / max(t.size - 1, 1)  # linspace's own step
        sums = self._sums(t.size, lambda slab, rows, amps: slab.grid_columns(rows, amps, step, t.size))
        return self._record(t, sums)

    @staticmethod
    def _record(t: np.ndarray, sums: np.ndarray) -> EvolutionResult:
        """The :class:`EvolutionResult` at the times ``t`` of the rows of :meth:`_sums`."""
        norm_sq, n_sub, n_pump, charge, pair, excess = sums
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

    def _var_x_tau_derivatives(self, t: float) -> tuple[float, float, float, float, float]:
        """``var_x``, its first two time derivatives, ``intensity_y`` and ``var_x_min_angle`` at one ``t``, as floats.

        One :meth:`_sums` pass of five columns per block, ``x0, x1, x2, x0 + x1,
        x0 + x2``, with ``x_k = (S_k, C_k)`` the k-th derivative of the
        eigen-coordinates in ``u = t / h``: ``d/du (S, C) = h (C, -sigma² S)``.
        ``var_x - 1`` is a quadratic form in the amplitudes, pair terms
        included, so by polarization its sums ``s0 .. s4`` give the value
        ``s0``, the slope ``s3 - s0 - s1`` and the curvature ``2 s1 + s4 - s0
        - s2``, in ``u``.  ``h = 1 / sqrt(max(N, 1))``, the pump's time unit: in
        ``t`` itself ``x1`` and ``x2`` grow like ``sqrt(N)`` and ``N`` times
        ``x0``, and the differences round that much worse.
        """
        h = 0.2 * default_t_max(self.cfg)

        def columns(slab, rows, amps):
            c0, s0 = slab.columns(rows, amps, t)
            e = -h * slab.eigvals[rows]
            s1, c1 = h * c0, e * s0
            s2, c2 = h * c1, e * s1
            c = np.stack((c0, c1, c2, c0 + c1, c0 + c2), axis=-1)
            return c, np.stack((s0, s1, s2, s0 + s1, s0 + s2), axis=-1)

        _, n_sub, _, _, pair, q = self._sums(5, columns)
        slope, curvature = (q[3] - q[0] - q[1]) / h, (2.0 * q[1] + q[4] - q[0] - q[2]) / (h * h)
        n = float(n_sub[0])
        return float(1.0 + q[0]), float(slope), float(curvature), n, float(1.0 + 2.0 * n - 2.0 * abs(pair[0]))

    def energy_scale(self) -> float:
        """||H psi0||, the natural scale for energy checks.

        Each block starts as ``c e_last``, so ``||H init||² = |c|² couplings[-1]²``;
        its square is ``<H²>``, which the propagation conserves.
        """
        return math.sqrt(sum(
            self.amps[q] ** 2 * blk.couplings[-1] ** 2 for q, blk in self.blocks.items() if blk.couplings.size
        ))


def _time_grid(times) -> np.ndarray:
    """``times`` as a float array; ``ValueError`` unless it is 1-d, non-empty, finite, starts at 0 and strictly ascends."""
    t = np.asarray(times, dtype=float)
    if t.ndim != 1 or t.size < 1 or t[0] != 0.0 or not (np.all(np.diff(t) > 0.0) and math.isfinite(t[-1])):
        raise ValueError("times must be 1-d, non-empty, finite, start at 0, and be strictly ascending")
    return t


def evolve(cfg: OscillatorConfig, t_grid) -> EvolutionResult:
    """Propagate and record observables on an ascending time grid from 0.

    The largest eigenphase ``x = sigma t`` is known to about its own
    rounding, ``eps x``: ``sigma`` and the product each round once.
    ``ValueError`` names the first time at which ``eps x`` exceeds
    ``10^-PHASE_DIGITS`` rad, so that ``x`` carries fewer than
    ``PHASE_DIGITS`` = 6 correct decimals (``x`` above about 4.5e9 rad, or
    not a finite double); far past it ``x`` has no correct digit and the
    observables no meaning.  The optimum search reads
    :meth:`BlockEvolution.scan` directly, which agrees with ``evolve`` on the
    same times to rounding: its windows end by ``2^MAX_EXTENSIONS``
    :func:`default_t_max`, at most 1280.
    """
    t = _time_grid(t_grid)
    ev = BlockEvolution(cfg)
    top = max((blk.sigma[-1] for blk in ev.blocks.values() if blk.sigma.size), default=0.0)
    with np.errstate(over="ignore"):
        phase = top * t
    past = np.flatnonzero(~(np.finfo(float).eps * phase <= 10.0**-PHASE_DIGITS))
    if past.size:
        raise ValueError(
            f"time {t[past[0]]:g} is past the propagator's range: its largest phase sigma * t = "
            f"{phase[past[0]]:.3g} rad carries fewer than {PHASE_DIGITS} correct decimals"
        )
    return ev.observables(t)


def default_t_max(cfg: OscillatorConfig) -> float:
    """``5 / sqrt(max(N, 1))``, the undepleted-pump timescale.

    It ends the ``simulate`` command's default time grid and the first window the optimum search scans.
    """
    return 5.0 / math.sqrt(max(cfg.pump_photons, 1.0))


@dataclass
class OptimalSqueezing:
    """Refined squeezing optimum of one run.

    ``resolution`` is the phase resolution at ``t_sq`` with the fixed
    ``x``-quadrature; ``s_min_angle`` re-optimizes the quadrature angle at
    the same time (the two coincide up to rounding for zero pump phase).
    ``evolution`` is the final window scan, ``GRID_POINTS`` = 32 times that
    only bracket the optimum: ``t_sq`` lies strictly inside it, before its
    second time when the search refined in ``(0, t_1)``.  It is built from
    the rotation table (:meth:`BlockEvolution.scan`) and agrees with
    :func:`evolve` on its times to rounding.  For a trajectory, call
    :func:`evolve` on a grid of your own.
    """

    t_sq: float
    var_min: float
    resolution: PhaseResolution
    var_min_angle: float
    s_min_angle: float
    evolution: EvolutionResult


def _minimize_var_x(scan, refine, window: float):
    """The minimum of ``var_x`` over time from a read-out: ``((t_sq, refine(t)) or None, last scan)``.

    ``scan(times)`` gives a record with ``var_x`` and ``var_x_min_angle`` arrays
    at ``times = np.linspace(0, window, GRID_POINTS)``; the block route's
    (:meth:`BlockEvolution.scan`) is built from a rotation table and agrees
    with :func:`evolve` to rounding, which only moves the bracket's ends when
    two scanned values tie to rounding.  ``refine(t)`` gives ``var_x``, its
    first two ``t``-derivatives, the intensity and ``var_x_min_angle`` at one
    time.  Scans of ``GRID_POINTS`` =
    32 times over ``[0, window]``, the window doubled up to ``MAX_EXTENSIONS``
    times, bracket the lowest ``var_x`` below ``1 - 1e-12`` at an interior
    ``t_i``; Newton steps then solve ``var_x' = 0`` in ``(t_{i-1}, t_{i+1})``.
    A step is taken when ``var_x'' > 0`` and it stays inside the bracket, which
    shrinks by the sign of ``var_x'`` on every pass; otherwise the bracket is
    bisected.  The passes stop when ``var_x'`` is 0, a step rounds to zero or is
    at most 1e-12 of ``t``, or after ``MAX_NEWTON_PASSES``.  The last pass is
    at most that last step from ``t_sq``, where ``var_x'`` vanishes, so its
    ``var_x`` differs at second order, its intensity and ``var_x_min_angle`` at first.

    When the lowest scanned ``var_x`` is at 0 or not below ``1 - 1e-12``, a
    ``var_x_min_angle`` that never drops below it either is stationary, ``(0,
    (1, 0, 0, 0, 1))``; slopes negative at 0 and positive at ``t_1`` bracket
    a dip the scan stepped over, refined in ``(0, t_1)``; otherwise, or when
    the refined ``var_x`` is not below ``1 - 1e-12``, the optimum is ``None``.
    No interior minimum after the doublings raises ``RuntimeError``.
    """
    t_max = window
    for _ in range(MAX_EXTENSIONS + 1):
        t = np.linspace(0.0, t_max, GRID_POINTS)
        result = scan(t)
        i = int(np.argmin(result.var_x))
        if i == 0 or result.var_x[i] > 1.0 - 1e-12:
            if np.min(result.var_x_min_angle) > 1.0 - 1e-12:
                return (0.0, (1.0, 0.0, 0.0, 0.0, 1.0)), result
            lo, hi = 0.0, float(t[1])
            if not refine(lo)[1] < 0.0 < refine(hi)[1]:
                return None, result
            t_sq = 0.5 * hi
            break
        if i < GRID_POINTS - 1:
            lo, t_sq, hi = (float(x) for x in t[i - 1:i + 2])
            break
        t_max *= 2.0
    else:
        raise RuntimeError("no interior squeezing minimum found; window extension exhausted")

    for _ in range(MAX_NEWTON_PASSES):
        at_t = refine(t_sq)
        _, slope, curvature = at_t[:3]
        if slope == 0.0:
            break
        if slope > 0.0:
            hi = t_sq
        else:
            lo = t_sq
        newton = t_sq - slope / curvature if curvature > 0.0 else math.nan
        if newton == t_sq:  # the step rounds to zero: converged at t_sq
            break
        t_new = newton if lo < newton < hi else 0.5 * (lo + hi)
        converged = abs(t_new - t_sq) <= 1e-12 * t_sq
        t_sq = t_new
        if converged:
            break
    return (None if at_t[0] > 1.0 - 1e-12 else (t_sq, at_t)), result


def find_optimal_squeezing(cfg: OscillatorConfig) -> OptimalSqueezing:
    """Locate the time of maximal sub-harmonic squeezing of one run.

    :func:`_minimize_var_x` searches over one :class:`BlockEvolution`: its
    scans are :meth:`~BlockEvolution.scan`, built from a rotation table and
    equal to :func:`evolve` on the same times to rounding, its passes
    :meth:`~BlockEvolution._var_x_tau_derivatives`, which take ``cos``/``sin``
    of their one time, and its first window is :func:`default_t_max`, the
    undepleted-pump timescale.
    A pump phase near ``pi/2`` leaves a shallow dip of ``var_x`` at about ``t =
    cos(phi) / (2 sqrt(N))``, before the first scan time.  A vacuum pump
    gives ``t_sq = 0``, ``var_min = 1``.  ``ValueError`` when ``var_x`` does not
    drop below ``1 - 1e-12`` (at ``phi = pi/2`` the dip is about 1e-33 deep),
    ``RuntimeError`` when no interior minimum is found.
    """
    ev = BlockEvolution(cfg)
    optimum, scan = _minimize_var_x(ev.scan, ev._var_x_tau_derivatives, default_t_max(cfg))
    if optimum is None:
        raise ValueError(
            f"pump phase {cfg.pump_phase} squeezes only away from the x quadrature: var_x never "
            f"drops below 1 on [0, {scan.times[-1]:.6g}]; use a pump phase near 0"
        )
    t_sq, (var_min, _, _, intensity, var_min_angle) = optimum
    return OptimalSqueezing(
        t_sq=t_sq,
        var_min=var_min,
        resolution=phase_resolution(intensity, var_min),
        var_min_angle=var_min_angle,
        s_min_angle=phase_resolution(intensity, var_min_angle).s,
        evolution=scan,
    )


# ---------------------------------------------------------------------------
# dense reference propagation (no charge decomposition)

def _ladder_sparse(dim: int):
    """The lowering operator of ``dim`` levels, a ``scipy.sparse`` CSR matrix."""
    import scipy.sparse as sparse  # here, as only the dense route needs it

    return sparse.diags(np.sqrt(np.arange(1, dim, dtype=float)), 1, format="csr")


def dense_evolve(cfg: OscillatorConfig, times):
    """Full-tensor propagation via sparse Krylov exponentials, one per interval of an ascending grid from 0.

    Returns ``(dims, states)`` where ``states[i]`` is the dense amplitude
    tensor at ``times[i]``; the mode dimensions (sub-harmonics first, pump
    last) cover every state reachable from the truncated pump.  One body
    serves both kinds: ``H = i g (b A† - b† A)`` with a real pair creator
    ``A†`` (``a1†²`` and ``g = 1/2``, or ``a2† a3†`` and ``g = 1``), so the generator
    ``-iH = g (C - Cᵀ)``, ``C = A† ⊗ b``, is real, and the pump phase
    stays in the complex start state.  This is the oracle route: it shares
    nothing with the charge-block propagator except the Hamiltonian definition.
    """
    import scipy.sparse as sparse  # here, with expm_multiply, as only the dense route needs them
    from scipy.sparse.linalg import expm_multiply

    t = _time_grid(times)
    pump = coherent_state(math.sqrt(cfg.pump_photons) * np.exp(1j * cfg.pump_phase)).amps
    d = pump.size
    b = _ladder_sparse(d)
    if cfg.kind == "degenerate":
        a1 = _ladder_sparse(2 * d - 1)
        dims, g, creator = (2 * d - 1, d), 0.5, a1.T @ a1.T
    else:
        dims, g, creator = (d, d, d), 1.0, sparse.kron(b.T, b.T)
    conv = sparse.kron(creator, b, format="csr")
    gen = g * (conv - conv.T)
    psi = np.zeros(math.prod(dims), dtype=np.complex128)
    psi[:d] = pump  # the sub-harmonics in vacuum; the pump axis is last
    states = [psi.reshape(dims).copy()]
    for dt in np.diff(t):
        psi = expm_multiply(gen * float(dt), psi)
        states.append(psi.reshape(dims).copy())
    return dims, states


def blocks_to_dense(cfg: OscillatorConfig, vectors: dict[int, np.ndarray], dims) -> np.ndarray:
    """Scatter block vectors into a dense tensor with the given dims."""
    out = np.zeros(dims, dtype=np.complex128)
    for q, v in vectors.items():
        sub, pump = _block_occupations(cfg.kind, q)
        out[(sub,) * (len(dims) - 1) + (pump,)] = v
    return out
