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
anywhere.  A dense full-tensor propagator (no charge decomposition) is
included as the independent cross-check route.

With the pump amplitude real positive, the squeezed quadrature of the
sub-harmonic is ``-i(a† - a)`` (the ``x2``/``x3`` specs of
:mod:`squeezelab.fock`); for small ``sqrt(N) kappa t`` its variance
follows the undepleted-pump law ``exp(-2 sqrt(N) kappa t)``.
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
    "find_optimal_squeezing",
    "dense_evolve",
    "blocks_to_dense",
]

OscillatorKind = Literal["degenerate", "nondegenerate"]

GRID_POINTS = 200  # time points per window scan of find_optimal_squeezing
MAX_EXTENSIONS = 8  # window doublings it tries before giving up
MAX_NEWTON_PASSES = 48  # cap on its refinement's derivative passes; bisection alone needs up to ~42


@dataclass(frozen=True)
class OscillatorConfig:
    """Lossless oscillator run parameters.

    ``pump_photons`` is the mean photon number of the initial coherent
    pump (0 is allowed and gives a stationary vacuum run).  ``coupling``
    rescales time only; it defaults to 1 and times are quoted in units of
    its inverse.
    """

    kind: OscillatorKind
    pump_photons: float
    coupling: float = 1.0
    pump_phase: float = 0.0

    def __post_init__(self):
        if self.kind not in ("degenerate", "nondegenerate"):
            raise ValueError(f"kind must be 'degenerate' or 'nondegenerate', got {self.kind!r}")
        if self.pump_photons < 0.0:
            raise ValueError(f"pump photon number must be >= 0, got {self.pump_photons}")
        if self.coupling <= 0.0:
            raise ValueError(f"coupling must be positive, got {self.coupling}")

    @property
    def n_modes(self) -> int:
        return 2 if self.kind == "degenerate" else 3


def block_basis(kind: OscillatorKind, charge: int) -> list[tuple[int, ...]]:
    """Occupation tuples of one conserved-charge block, pump occupation ascending.

    Degenerate: ``(n1, n_pump)`` with ``n1 + 2 n_pump = charge``.
    Non-degenerate: ``(m, m, n_pump)`` with ``2m + 2 n_pump = charge`` --
    the ``n2 = n3`` sector reachable from vacuum signal/idler (``charge``
    must be even there).
    """
    if charge < 0:
        raise ValueError("charge must be >= 0")
    if kind == "degenerate":
        return [(charge - 2 * k, k) for k in range(charge // 2 + 1)]
    if charge % 2:
        raise ValueError("non-degenerate blocks with vacuum signal/idler have even charge")
    half = charge // 2
    return [(half - k, half - k, k) for k in range(half + 1)]


def _block_couplings(kind: OscillatorKind, charge: int, coupling: float = 1.0) -> np.ndarray:
    """Off-diagonal ``b`` of one block, ``H[k-1, k] = i b[k-1]`` in :func:`block_basis` order."""
    basis = block_basis(kind, charge)
    k = np.arange(1, len(basis), dtype=float)
    sub = np.array([occ[0] for occ in basis[1:]], dtype=float)  # occupation before conversion
    if kind == "degenerate":
        return 0.5 * coupling * np.sqrt(k * (sub + 1.0) * (sub + 2.0))
    return coupling * np.sqrt(k) * (sub + 1.0)


def hamiltonian_block(kind: OscillatorKind, charge: int, coupling: float = 1.0) -> np.ndarray:
    """One Hermitian block of the oscillator Hamiltonian.

    Rows/columns follow :func:`block_basis`.  Blocks are tridiagonal:
    turning one pump photon into a sub-harmonic pair moves one step down
    the pump index.
    """
    b = _block_couplings(kind, charge, coupling)
    return np.diag(1j * b, 1) + np.diag(-1j * b, -1)


def _tridiagonal_eigh(couplings: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenpairs ``(vals, W, g)`` of the tridiagonal ``H[k-1, k] = i couplings[k-1]``, zero diagonal.

    In the gauge ``g_k = (-i)^k``, ``conj(g) H g`` is real symmetric, so
    ``W`` is real and ``H = (g W) diag(vals) (g W)^†``.
    """
    vals, vecs = eigh_tridiagonal(np.zeros(couplings.size + 1), couplings)
    return vals, vecs, np.conj(1j ** np.arange(couplings.size + 1))


def _pump_block_amplitudes(cfg: OscillatorConfig) -> np.ndarray:
    """Initial coherent-pump coefficients c_K, K = 0 .. pump cutoff."""
    return coherent_state(math.sqrt(cfg.pump_photons) * np.exp(1j * cfg.pump_phase)).amps


@dataclass
class _Block:
    couplings: np.ndarray     # H[k-1, k] = i couplings[k-1]
    eigvals: np.ndarray
    eigvecs: np.ndarray       # real eigenvectors of the gauged block conj(g) H g
    gauge: np.ndarray         # g: occupation amplitudes are g * (eigvecs @ w)
    init: np.ndarray          # initial block vector
    w0: np.ndarray            # initial block vector in the eigenbasis
    sub_occ: np.ndarray       # sub-harmonic occupation per basis index
    pump_occ: np.ndarray
    pair_coeff: np.ndarray    # <block q-2 | a1² or a2 a3 | block q> diagonal couplings

    def states(self, w: np.ndarray, times) -> np.ndarray:
        """Occupation amplitudes, shape (dim, len(times)), of eigenbasis vector ``w`` at each time."""
        return self.amplitudes(np.exp(-1j * np.outer(self.eigvals, times)) * w[:, None])

    def amplitudes(self, phased: np.ndarray) -> np.ndarray:
        """Occupation amplitudes of the eigenbasis columns ``phased`` (shape (dim, n))."""
        # real eigenvectors times complex columns: one real GEMM over the (re, im) pairs
        return self.gauge[:, None] * (self.eigvecs @ phased.view(np.float64)).view(np.complex128)


class BlockEvolution:
    """Exact propagator of one oscillator run, block by block.

    Each block is diagonalized once, in the real gauge of
    :func:`_tridiagonal_eigh`; evaluating a whole time grid is then one GEMM per block.
    Blocks whose initial weight is below 1e-18 are dropped.
    """

    def __init__(self, cfg: OscillatorConfig):
        self.cfg = cfg
        coeffs = _pump_block_amplitudes(cfg)
        self.blocks: dict[int, _Block] = {}
        for n_pump, c in enumerate(coeffs):
            if abs(c) ** 2 < 1e-18:
                continue
            charge = 2 * n_pump
            basis = block_basis(cfg.kind, charge)
            couplings = _block_couplings(cfg.kind, charge, cfg.coupling)
            vals, vecs, gauge = _tridiagonal_eigh(couplings)
            init = np.zeros(n_pump + 1, dtype=np.complex128)
            init[n_pump] = c  # pump index n_pump holds (sub-modes vacuum, n_pump)
            w0 = c * np.conj(gauge[n_pump]) * vecs[n_pump]  # W^T conj(g) init
            sub_occ = np.array([b[0] for b in basis], dtype=float)
            pump_occ = np.array([b[-1] for b in basis], dtype=float)
            if cfg.kind == "degenerate":
                pair = np.sqrt(np.maximum(sub_occ * (sub_occ - 1.0), 0.0))
            else:
                pair = sub_occ.copy()  # <m-1, m-1| a2 a3 |m, m> = m
            self.blocks[charge] = _Block(couplings, vals, vecs, gauge, init, w0, sub_occ, pump_occ, pair)

    # -- propagation -------------------------------------------------------

    def propagate(self, vectors: dict[int, np.ndarray], dt: float) -> dict[int, np.ndarray]:
        """Advance arbitrary block vectors by ``dt`` (negative allowed)."""
        out = {}
        for q, v in vectors.items():
            blk = self.blocks[q]
            out[q] = blk.states(blk.eigvecs.T @ (np.conj(blk.gauge) * v), [dt])[:, 0]
        return out

    def initial_vectors(self) -> dict[int, np.ndarray]:
        return {q: blk.init.copy() for q, blk in self.blocks.items()}

    def state_at(self, t: float) -> dict[int, np.ndarray]:
        return {q: blk.states(blk.w0, [t])[:, 0] for q, blk in self.blocks.items()}

    # -- observables -------------------------------------------------------

    def observables(self, times) -> dict[str, np.ndarray]:
        """Observables on a time array, one GEMM per block, folded in block by block.

        Energy is ``<v|H v>`` of the propagated amplitudes, not a sum over
        eigenvalues, so its drift tests the propagator.  With
        ``H[k-1, k] = i b[k-1]`` it is ``-2 b . Im(conj(v[:-1]) v[1:])``.
        The pair term ``<a1²>`` / ``<a2 a3>`` couples charge ``q`` to
        ``q - 2``; only the block below is kept for it.
        """
        t = np.asarray(times, dtype=float)
        n_sub, n_pump, charge, energy, norm_sq = np.zeros((5, t.size))  # n_sub: <n1> or <n2> (= <n3>)
        pair = np.zeros(t.size, dtype=np.complex128)
        lower_q, lower = None, None
        for q, blk in self.blocks.items():
            v = blk.states(blk.w0, t)
            if lower_q == q - 2:
                k = lower.shape[0]
                pair += np.sum(np.conj(lower) * (blk.pair_coeff[:k, None] * v[:k]), axis=0)
            lower_q, lower = q, v
            p = np.abs(v) ** 2
            weight = p.sum(axis=0)
            n_sub += blk.sub_occ @ p
            n_pump += blk.pump_occ @ p
            charge += weight * q
            norm_sq += weight
            energy -= 2.0 * (blk.couplings @ np.imag(np.conj(v[:-1]) * v[1:]))
        two_n = 2.0 * n_sub  # 2 n1, or n2 + n3
        return {
            "var_x": 1.0 + two_n - 2.0 * pair.real,
            "intensity_y": n_sub,  # <n1>, or <c† c> of the normalized composite mode
            "pump_n": n_pump,
            "charge": charge,
            "energy": energy,
            "norm_sq": norm_sq,
            "var_x_min_angle": 1.0 + two_n - 2.0 * np.abs(pair),
        }

    def observables_at(self, t: float) -> dict[str, float]:
        return {k: float(v[0]) for k, v in self.observables([t]).items()}

    def var_x_at(self, t: float) -> float:
        return self.observables_at(t)["var_x"]

    def var_x_derivatives(self, t: float) -> tuple[float, float, float]:
        """``var_x`` and its first and second time derivatives at one time, in one pass over the blocks.

        In the eigenbasis d/dt multiplies the phased vector by ``-i vals``, so
        each block is one GEMM against the three columns ``(phi, -i vals phi,
        -vals² phi)``.  Both sums of ``var_x`` are sesquilinear in the
        amplitudes; their 3x3 matrices over (value, first, second derivative)
        columns give the k-th derivative as ``sum_j binom(k, j) A[j, k - j]``.
        """
        acc = np.zeros((3, 3), dtype=np.complex128)  # 2 <n_sub> - 2 <pair>, column by column
        lower_q, lower = None, None
        for q, blk in self.blocks.items():
            phased = np.exp(-1j * t * blk.eigvals) * blk.w0
            rate = -1j * blk.eigvals
            v = blk.amplitudes(np.stack([phased, rate * phased, rate * rate * phased], axis=1))
            acc += 2.0 * (np.conj(v.T) @ (blk.sub_occ[:, None] * v))
            if lower_q == q - 2:
                k = lower.shape[0]
                acc -= 2.0 * (np.conj(lower.T) @ (blk.pair_coeff[:k, None] * v[:k]))
            lower_q, lower = q, v
        acc = acc.real
        return 1.0 + acc[0, 0], acc[0, 1] + acc[1, 0], acc[0, 2] + 2.0 * acc[1, 1] + acc[2, 0]

    def energy_scale(self) -> float:
        """||H psi0||, the natural scale for energy-drift checks.

        Each block starts as ``c e_last``, so ``||H init||² = |c|² couplings[-1]²``.
        """
        return math.sqrt(sum(
            abs(blk.init[-1]) ** 2 * blk.couplings[-1] ** 2 for blk in self.blocks.values() if blk.couplings.size
        ))


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


def evolve(cfg: OscillatorConfig, t_grid) -> EvolutionResult:
    """Propagate and record observables on an ascending time grid from 0."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 1 or t[0] != 0.0 or np.any(np.diff(t) <= 0.0):
        raise ValueError("t_grid must be 1-d, start at 0, and be strictly ascending")
    return _evolution(BlockEvolution(cfg), t)


def _evolution(ev: BlockEvolution, t: np.ndarray) -> EvolutionResult:
    series = ev.observables(t)
    return EvolutionResult(
        times=t,
        var_x=series["var_x"],
        intensity_y=series["intensity_y"],
        pump_n=series["pump_n"],
        charge=series["charge"],
        energy=series["energy"],
        norm=np.sqrt(series["norm_sq"]),
        var_x_min_angle=series["var_x_min_angle"],
    )


@dataclass
class OptimalSqueezing:
    """Refined squeezing optimum of one run.

    ``resolution`` is the phase resolution at ``t_sq`` with the fixed
    ``x``-quadrature; ``s_min_angle`` re-optimizes the quadrature angle at
    the same time (the two coincide up to rounding for zero pump phase).
    ``evolution`` is the final window scan.
    """

    t_sq: float
    var_min: float
    resolution: PhaseResolution
    var_min_angle: float
    s_min_angle: float
    evolution: EvolutionResult


def find_optimal_squeezing(cfg: OscillatorConfig) -> OptimalSqueezing:
    """Locate the time of maximal sub-harmonic squeezing.

    Scans ``GRID_POINTS`` times over ``[0, 5 / sqrt(max(N, 1))]`` (the
    undepleted-pump timescale), doubling the window up to
    ``MAX_EXTENSIONS`` times until the variance minimum is interior, then
    solves ``var_x'(t) = 0`` inside the grid bracket around that minimum by
    Newton steps on the analytic time derivatives of
    :meth:`BlockEvolution.var_x_derivatives`.  A step is taken when
    ``var_x'' > 0`` and it stays inside the bracket, which shrinks by the
    sign of ``var_x'`` on every pass; otherwise the bracket is bisected.  It
    stops when ``var_x'`` is 0 or a step is at most 1e-12 of ``t``, after at
    most ``MAX_NEWTON_PASSES`` passes.  One propagator serves the scans and
    the refinement.

    A run whose angle-optimized variance is never squeezed on the scan
    (vacuum pump) is stationary and returns ``t_sq = 0``, ``var_min = 1``.
    A run that squeezes only away from the ``x`` quadrature (pump phase
    near pi/2 ... pi) raises ``ValueError``.
    """
    ev = BlockEvolution(cfg)
    scale = math.sqrt(max(cfg.pump_photons, 1.0)) * cfg.coupling
    t_max = 5.0 / scale
    for _ in range(MAX_EXTENSIONS + 1):
        result = _evolution(ev, np.linspace(0.0, t_max, GRID_POINTS))
        i = int(np.argmin(result.var_x))
        if result.var_x[i] > 1.0 - 1e-12:
            if np.min(result.var_x_min_angle) > 1.0 - 1e-12:
                # stationary run (vacuum pump): nothing to refine
                return OptimalSqueezing(0.0, 1.0, phase_resolution(0.0, 1.0), 1.0, 0.0, result)
            raise ValueError(
                f"pump phase {cfg.pump_phase} squeezes only away from the x quadrature: var_x never "
                f"drops below 1 on [0, {t_max:.6g}]; use a pump phase near 0"
            )
        if 0 < i < GRID_POINTS - 1:
            break
        t_max *= 2.0
    else:
        raise RuntimeError("no interior squeezing minimum found; window extension exhausted")

    lo, t_sq, hi = (float(x) for x in result.times[i - 1:i + 2])
    for _ in range(MAX_NEWTON_PASSES):
        _, slope, curvature = ev.var_x_derivatives(t_sq)
        if slope == 0.0:
            break
        if slope > 0.0:
            hi = t_sq
        else:
            lo = t_sq
        newton = t_sq - slope / curvature if curvature > 0.0 else math.nan
        t_new = newton if lo < newton < hi else 0.5 * (lo + hi)
        converged = abs(t_new - t_sq) <= 1e-12 * t_sq
        t_sq = t_new
        if converged:
            break
    obs = ev.observables_at(t_sq)
    resolution = phase_resolution(obs["intensity_y"], obs["var_x"])
    s_angle = phase_resolution(obs["intensity_y"], obs["var_x_min_angle"]).s
    return OptimalSqueezing(
        t_sq=t_sq,
        var_min=obs["var_x"],
        resolution=resolution,
        var_min_angle=obs["var_x_min_angle"],
        s_min_angle=s_angle,
        evolution=result,
    )


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
    coeffs = _pump_block_amplitudes(cfg)
    d_pump = coeffs.size
    dims = (2 * d_pump - 1, d_pump) if cfg.kind == "degenerate" else (d_pump, d_pump, d_pump)
    pump_vec = coeffs
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
