import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy.linalg import expm

import squeezelab as sq
import squeezelab.fock as fock
from squeezelab.fock import (
    FockState,
    QuadratureSpec,
    SqueezeParams,
    DEFICIT_TOL,
    MAX_CUTOFF,
    TruncationError,
    _next_rotation_band,
    _rotation_bands,
    default_cutoff,
    mode_moments,
)

#: the quadratures a + a† and -i(a† - a) of mode 0
Y0 = QuadratureSpec(0, 0.0)
X0 = QuadratureSpec(0, -0.5 * math.pi)


def dense_ladder(dim):
    a = np.diag(np.sqrt(np.arange(1, dim, dtype=float)), 1)
    return a, a.conj().T


# ---------------------------------------------------------------------------
# constructors

def test_vacuum_identity():
    st = sq.vacuum_state(8)
    assert st.mean_photons() == 0.0
    mean, var, intensity = sq.quadrature_stats(st, X0)
    assert (mean, var, intensity) == (0.0, 1.0, 1.0)


def test_coherent_alpha_zero_is_vacuum():
    st = sq.coherent_state(0.0)
    assert st.mean_photons() == 0.0
    assert abs(st.amps[0] - 1.0) < 1e-15


@pytest.mark.parametrize("alpha", [2.0, 1.0 + 1.0j, -0.5 + 2.3j])
def test_coherent_moments(alpha):
    st = sq.coherent_state(alpha)
    assert abs(st.norm() - 1.0) < 1e-9
    assert abs(st.mean_photons() - abs(alpha) ** 2) < 1e-8
    assert abs(mode_moments(st, 0)[0] - alpha) < 1e-8
    for angle in (0.0, 0.7, 2.0):
        _, var, _ = sq.quadrature_stats(st, QuadratureSpec(0, angle))
        assert abs(var - 1.0) < 1e-6


def test_coherent_y2_intensity_against_dense_oracle():
    """<Y2† Y2> = 4N + 1 for a real amplitude, checked with dense matrices."""
    alpha = 2.0
    st = sq.coherent_state(alpha)
    a, ad = dense_ladder(st.mode_dims[0])
    y = a + ad
    brute = np.vdot(st.amps, y @ y @ st.amps).real
    mean, var, intensity = sq.quadrature_stats(st, Y0)
    assert abs(intensity - brute) < 1e-10
    assert abs(intensity - (4.0 * alpha**2 + 1.0)) < 1e-8
    assert abs(mean - 2.0 * alpha) < 1e-8


def test_coherent_phase_resolution_is_amplitude():
    res = sq.phase_resolution_of_mode(sq.coherent_state(3.0))
    assert abs(res.s - 3.0) < 1e-4


@pytest.mark.parametrize("mag", [1.0, 2.5, 4.0, 6.0])
def test_coherent_phase_resolution_invariance(mag):
    alpha = mag * np.exp(0.9j)
    res = sq.phase_resolution_of_mode(sq.coherent_state(alpha))
    assert abs(res.s - mag) < 1e-4


@pytest.mark.parametrize("s", [0.0, 0.3, 0.7])
@pytest.mark.parametrize("theta", [0.0, 1.1, -2.3])
def test_squeezed_vacuum_phase_resolution_follows_the_noise_ellipse(s, theta):
    """Zero mean field: the distance quadrature is the ellipse's major axis, so S = sinh(s) e^s (0 on vacuum).

    The 1e-10 cut moves <n> by about 1e-8, hence the tolerance.
    """
    res = sq.phase_resolution_of_mode(sq.squeezed_vacuum(SqueezeParams(s, theta)))
    assert res.s == pytest.approx(math.sinh(s) * math.exp(s), rel=1e-7)


def exact_coherent_deficit(mean, cutoff):
    """Poisson weight beyond ``cutoff``, the regularized lower incomplete gamma, to 50 digits."""
    with mpmath.workdps(50):
        return mpmath.gammainc(cutoff + 1, 0, mpmath.mpf(mean), regularized=True)


def exact_squeezed_deficit(s, cutoff):
    """Negative-binomial pair weight beyond ``cutoff // 2`` (r = 1/2, p = sech² s), to 50 digits."""
    with mpmath.workdps(50):
        return mpmath.betainc(cutoff // 2 + 1, 0.5, 0, mpmath.tanh(mpmath.mpf(s)) ** 2, regularized=True)


def test_coherent_cutoff_below_140_photons_is_the_floor():
    for mag in (1.0, 6.0, 11.0, math.sqrt(139.0)):
        assert sq.coherent_state(mag).mode_dims[0] == default_cutoff(mag**2) + 1


@pytest.mark.parametrize("mag,expected_cutoff", [(12.0, 227), (16.0, 364)])
def test_coherent_large_amplitude_cutoff_is_smallest_within_tolerance(mag, expected_cutoff):
    """The 6-sigma floor misses DEFICIT_TOL from about 136 photons on; the cutoff is raised just enough."""
    st = sq.coherent_state(mag)
    cutoff = st.mode_dims[0] - 1
    assert cutoff == expected_cutoff > default_cutoff(mag**2)
    assert exact_coherent_deficit(mag**2, cutoff) <= DEFICIT_TOL
    assert exact_coherent_deficit(mag**2, cutoff - 1) > DEFICIT_TOL
    assert abs(st.norm() - 1.0) < 1e-12
    assert abs(st.mean_photons() - mag**2) < 1e-6


@pytest.mark.parametrize("mean,expected_cutoff", [(1e4, 10643), (56493.0, 58012), (4e5, 404030)])
def test_coherent_cutoff_at_large_mean(mean, expected_cutoff):
    """The closed-form Poisson tail sets the cutoff where a float sum of |c_n|² misjudges the deficit."""
    assert sq.coherent_state(math.sqrt(mean)).mode_dims[0] - 1 == expected_cutoff


@settings(max_examples=100, deadline=None)
@given(mean=strategies.floats(0.0, 2e4), s=strategies.floats(0.0, 3.0))
def test_cutoffs_are_smallest_within_tolerance_property(mean, s):
    """Each constructor's cutoff leaves an exact deficit <= DEFICIT_TOL, and one less would not (above the floor)."""
    cutoff = sq.coherent_state(math.sqrt(mean)).mode_dims[0] - 1
    assert exact_coherent_deficit(mean, cutoff) <= DEFICIT_TOL
    if cutoff > default_cutoff(mean):
        assert exact_coherent_deficit(mean, cutoff - 1) > DEFICIT_TOL
    params = SqueezeParams(s)
    cutoff = sq.squeezed_vacuum(params).mode_dims[0] - 1
    assert exact_squeezed_deficit(s, cutoff) <= DEFICIT_TOL
    if cutoff > default_cutoff(params.mean_photons):
        assert exact_squeezed_deficit(s, cutoff - 1) > DEFICIT_TOL


@pytest.mark.parametrize("build", [lambda: sq.squeezed_vacuum(SqueezeParams(8.0)),
                                   lambda: sq.squeezed_vacuum(SqueezeParams(20.0)),
                                   lambda: sq.coherent_state(1100.0),
                                   lambda: sq.coherent_state(1e100)])
def test_cutoff_above_the_bound_raises_at_once(build):
    """s = 8 needs a cutoff of about 9.3e7; from s = 19.1 tanh² s rounds to 1 and the deficit never falls.

    |alpha|² = 1e200 is finite, so it is a cutoff past the bound, not a refused input.
    """
    start = time.perf_counter()
    with pytest.raises(TruncationError, match=str(MAX_CUTOFF)):
        build()
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("alpha", [math.nan, math.inf, 1e200, 1e200 + 0j])
def test_coherent_state_refuses_a_non_finite_mean(alpha):
    """|alpha|² that is NaN or overflows is refused by name before any work, not with a conversion error."""
    with pytest.raises(ValueError, match=r"\|alpha\|\^2"):
        sq.coherent_state(alpha)


def test_squeezed_mean_photons():
    st = sq.squeezed_vacuum(SqueezeParams(1.0))
    assert abs(st.mean_photons() - math.sinh(1.0) ** 2) < 1e-6


@pytest.mark.parametrize("s,theta", [(0.6, 0.0), (1.0, 0.7), (1.3, math.pi)])
def test_squeezed_amplitudes_match_expm_oracle(s, theta):
    """Coefficient recursion vs exponentiating the squeeze generator."""
    st = sq.squeezed_vacuum(SqueezeParams(s, theta))
    dim = st.mode_dims[0]
    # the reference space must be wide enough for expm itself to converge
    a, ad = dense_ladder(dim + 120)
    gen = 0.5 * s * (np.exp(-1j * theta) * a @ a - np.exp(1j * theta) * ad @ ad)
    vac = np.zeros(dim + 120, dtype=complex)
    vac[0] = 1.0
    ref = expm(gen) @ vac
    assert np.max(np.abs(st.amps - ref[:dim])) < 1e-9


@pytest.mark.parametrize("s,expected_cutoff", [(0.05, 11), (0.3, 16), (1.3, 140)])
def test_squeezed_cutoff_is_floor_or_smallest_within_tolerance(s, expected_cutoff):
    """Like the coherent cutoff: the default_cutoff floor, raised just enough to meet DEFICIT_TOL."""
    params = SqueezeParams(s)
    cutoff = sq.squeezed_vacuum(params).mode_dims[0] - 1
    floor = default_cutoff(params.mean_photons)
    assert cutoff == expected_cutoff >= floor
    assert exact_squeezed_deficit(s, cutoff) <= DEFICIT_TOL
    if cutoff > floor:
        assert exact_squeezed_deficit(s, cutoff - 1) > DEFICIT_TOL


def test_squeezed_zero_is_vacuum():
    st = sq.squeezed_vacuum(SqueezeParams(0.0))
    assert st.mean_photons() == 0.0
    _, var, _ = sq.quadrature_stats(st, Y0)
    assert var == pytest.approx(1.0, abs=1e-12)


def test_squeezed_odd_amplitudes_exactly_zero():
    st = sq.squeezed_vacuum(SqueezeParams(1.2, 0.4))
    assert np.all(st.amps[1::2] == 0.0)


def test_squeezed_minimal_variance():
    """theta=0 squeezes the cosine quadrature to exp(-2s)."""
    s = 1.0
    st = sq.squeezed_vacuum(SqueezeParams(s))
    variances = []
    for angle in np.linspace(0.0, math.pi, 37):
        _, var, _ = sq.quadrature_stats(st, QuadratureSpec(0, angle))
        variances.append(var)
    assert abs(min(variances) - math.exp(-2.0 * s)) < 1e-6
    assert int(np.argmin(variances)) == 0  # squeezed axis at angle 0
    assert abs(max(variances) - math.exp(2.0 * s)) < 1e-5


def test_squeezed_a_squared_sign_convention():
    """<a²> = -sinh(s)cosh(s) at theta=0, by direct amplitude sum."""
    s = 1.0
    st = sq.squeezed_vacuum(SqueezeParams(s))
    amps = st.amps
    n = np.arange(amps.size - 2)
    brute = np.sum(np.conj(amps[:-2]) * amps[2:] * np.sqrt((n + 1.0) * (n + 2.0)))
    expected = -math.sinh(s) * math.cosh(s)
    assert abs(brute - expected) < 1e-8
    assert abs(mode_moments(st, 0)[1] - expected) < 1e-8


def test_squeeze_params_validation():
    for s, theta in ((-0.1, 0.0), (math.nan, 0.0), (math.inf, 0.0), (356.0, 0.0), (800.0, 0.0), (1.0, math.nan)):
        with pytest.raises(ValueError):
            SqueezeParams(s, theta)
    assert SqueezeParams(355.0).mean_photons < math.inf
    assert SqueezeParams(1.0, 2.0 * math.pi + 0.3).theta == 2.0 * math.pi + 0.3  # kept as given, not reduced
    assert SqueezeParams(1.0).mean_photons == pytest.approx(math.sinh(1.0) ** 2)


# ---------------------------------------------------------------------------
# one-mode moments

def test_expectation_number_operator():
    st = sq.number_state((3, 1), (6, 2))
    assert mode_moments(st, 0) == (0.0, 0.0, 3.0)
    assert mode_moments(st, 1) == (0.0, 0.0, 1.0)


def test_expectation_hermitian_is_real():
    """<a†a> is a real float, equal to the dense number operator's expectation."""
    st = sq.coherent_state(1.5 + 0.5j)
    a, ad = dense_ladder(st.mode_dims[0])
    number = mode_moments(st, 0)[2]
    assert isinstance(number, float)
    assert abs(number - np.vdot(st.amps, ad @ a @ st.amps)) < 1e-12


def test_expectation_mode_out_of_range():
    for mode in (1, -1):
        with pytest.raises(ValueError, match="mode index"):
            mode_moments(sq.vacuum_state(4), mode)


def _dense_on_mode(op: np.ndarray, amps: np.ndarray, mode: int) -> np.ndarray:
    return np.moveaxis(np.tensordot(op, amps, axes=(1, mode)), 0, mode)


@settings(max_examples=40, deadline=None)
@given(
    dims=strategies.lists(strategies.integers(1, 7), min_size=1, max_size=3),
    seed=strategies.integers(0, 2**32 - 1),
    angle=strategies.floats(-math.pi, math.pi),
)
def test_mode_moments_match_dense_ladder_matrices(dims, seed, angle):
    """Every mode of a random 1-3 mode tensor, against the dense truncated a and a†.

    The quadrature check pads every axis with an empty top level, where the
    truncated ``Q²`` equals the untruncated one.
    """
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=dims) + 1j * rng.normal(size=dims)
    amps /= np.linalg.norm(amps)
    padded = np.pad(amps, [(0, 1)] * amps.ndim)
    for mode, dim in enumerate(dims):
        a, ad = dense_ladder(dim)
        lowered = _dense_on_mode(a, amps, mode)
        expected = (
            np.vdot(amps, lowered),
            np.vdot(amps, _dense_on_mode(a, lowered, mode)),
            np.vdot(amps, _dense_on_mode(ad, lowered, mode)).real,
        )
        assert np.allclose(mode_moments(FockState(amps), mode), expected, rtol=0.0, atol=1e-12)
        a, ad = dense_ladder(dim + 1)
        q = np.exp(-1j * angle) * a + np.exp(1j * angle) * ad
        q_psi = _dense_on_mode(q, padded, mode)
        mean = np.vdot(padded, q_psi).real
        second = np.vdot(padded, _dense_on_mode(q, q_psi, mode)).real
        stats = sq.quadrature_stats(FockState(padded), QuadratureSpec(mode, angle))
        assert np.allclose(stats, (mean, second - mean * mean, second), rtol=0.0, atol=1e-11)


# ---------------------------------------------------------------------------
# quadratures


@pytest.mark.parametrize(
    "state",
    [
        sq.coherent_state(1.5),
        sq.squeezed_vacuum(SqueezeParams(0.8)),
        sq.number_state(2, 12),
    ],
)
def test_uncertainty_product(state):
    _, var_x, _ = sq.quadrature_stats(state, X0)
    _, var_y, _ = sq.quadrature_stats(state, Y0)
    assert var_x * var_y >= 1.0 - 1e-9


def test_distance_intensity_is_photon_number():
    st = sq.coherent_state(2.0 * np.exp(0.4j))
    for angle in (0.0, 0.4, 1.9):
        assert abs(sq.distance_intensity(st, QuadratureSpec(0, angle)) - 4.0) < 1e-8
    sv = sq.squeezed_vacuum(SqueezeParams(0.9))
    assert abs(sq.distance_intensity(sv, Y0) - math.sinh(0.9) ** 2) < 1e-8


def test_quadrature_mode_count_mismatch():
    with pytest.raises(ValueError):
        sq.quadrature_stats(sq.vacuum_state(4), QuadratureSpec(1, 0.0))
    with pytest.raises(ValueError):
        sq.distance_intensity(sq.vacuum_state(4), QuadratureSpec(1, 0.0))


# ---------------------------------------------------------------------------
# beam splitter / mode mixing

def test_identity_splitter_preserves_state():
    cfg = sq.BeamSplitterConfig.from_reflectivity(0.0)
    inp = sq.product_state(sq.coherent_state(1.2 + 0.3j), sq.vacuum_state(2))
    out = sq.apply_mode_unitary(inp, cfg.mode_matrix())
    d1 = inp.mode_dims[0]
    assert np.max(np.abs(out.amps[:d1, 0] - inp.amps[:, 0])) < 1e-12
    assert abs(out.norm() - 1.0) < 1e-9


def test_5050_splitter_on_coherent():
    alpha = 2.0
    cfg = sq.BeamSplitterConfig.from_reflectivity(math.sqrt(0.5))
    inp = sq.product_state(sq.coherent_state(alpha), sq.vacuum_state(2))
    out = sq.apply_mode_unitary(inp, cfg.mode_matrix())
    assert abs(mode_moments(out, 0)[0] - alpha / math.sqrt(2.0)) < 1e-8
    assert abs(out.mean_photons(0) - alpha**2 / 2.0) < 1e-8
    assert abs(out.mean_photons(1) - alpha**2 / 2.0) < 1e-8
    _, var, _ = sq.quadrature_stats(out, Y0)
    assert abs(var - 1.0) < 1e-8


def test_mixing_conserves_norm_and_photons():
    amps = np.zeros((4, 5), dtype=complex)
    amps[0, 0], amps[2, 1], amps[3, 4], amps[1, 2] = 0.5, 0.5j, -0.5, 0.5
    inp = FockState(amps)
    total_before = inp.mean_photons(0) + inp.mean_photons(1)
    cfg = sq.BeamSplitterConfig.from_reflectivity(0.6, delta=0.2, psi=1.1)
    out = sq.apply_mode_unitary(inp, cfg.mode_matrix())
    assert abs(out.norm() - 1.0) < 1e-9
    assert abs(out.mean_photons(0) + out.mean_photons(1) - total_before) < 1e-9


def test_rotation_blocks_orthogonal_at_large_n():
    for theta in (0.2, 0.9):
        blocks = _rotation_bands(theta, 201, 201)[1]
        for n in (50, 120, 200):
            b = blocks[n]
            assert np.max(np.abs(b @ b.T - np.eye(n + 1))) < 1e-11


def test_rotation_blocks_orthogonal_at_n600():
    # the photon-addition steps of _rotation_bands, without caching every block up to 600
    b = np.ones((1, 1))
    for _ in range(600):
        b = _next_rotation_band(b, 0, 0, b.shape[1], math.cos(1.13), math.sin(1.13))
    assert np.max(np.abs(b @ b.T - np.eye(601))) < 1e-11


@pytest.mark.parametrize("theta", [0.3, 1.2, math.pi / 2])
def test_rotation_block_matches_dense_generator_at_n150(theta):
    """exp[theta (a1† a2 - a2† a1)] on the n = 150 block, from the dense generator."""
    n = 150
    gen = np.zeros((n + 1, n + 1))
    for m in range(n):
        # a1† a2 |m, n-m> = sqrt((m+1)(n-m)) |m+1, n-m-1>
        gen[m + 1, m] = math.sqrt((m + 1.0) * (n - m))
    gen -= gen.T
    assert np.max(np.abs(_rotation_bands(theta, n + 1, n + 1)[1][n] - expm(theta * gen))) < 1e-10


def _full_blocks(theta, n_max):
    """Full rotation blocks 0 .. n_max, by the photon-addition steps from the vacuum block."""
    blocks = [np.ones((1, 1))]
    for _ in range(n_max):
        blocks.append(_next_rotation_band(blocks[-1], 0, 0, len(blocks), math.cos(theta), math.sin(theta)))
    return blocks


@pytest.mark.parametrize("d1, d2", [(38, 141), (141, 38), (1, 30)])
def test_rotation_bands_equal_full_block_columns(d1, d2, monkeypatch):
    for theta in (0.2, 1.13, math.pi / 2, -0.4):
        monkeypatch.setattr(fock, "_rotation_cache", (0.0, 0, 0, []))
        built_d2, bands = _rotation_bands(theta, d1, d2)
        assert built_d2 == d2 and len(bands) == d1 + d2 - 1
        for n, (band, block) in enumerate(zip(bands, _full_blocks(theta, d1 + d2 - 2))):
            lo, hi = max(0, n - d2 + 1), min(d1 - 1, n)
            assert np.array_equal(band, block[:, lo:hi + 1])


def test_rotation_memo_holds_one_angle_as_wide_as_the_input(monkeypatch):
    monkeypatch.setattr(fock, "_rotation_cache", (0.0, 0, 0, []))
    sq.beam_splitter_crosscheck(sq.BeamSplitterConfig.from_reflectivity(0.4), 1.8, 3.0)
    theta, d1, d2, bands = fock._rotation_cache
    assert isinstance(theta, float)
    assert min(d1, d2) == max(band.shape[1] for band in bands)
    assert sum(band.nbytes for band in bands) < 32 * 2**20
    assert all(band.base is None for band in bands)  # a view would keep its wider array alive
    widths = [min(d1 - 1, n) - max(0, n - d2 + 1) + 1 for n in range(d1 + d2 - 1)]
    assert sum(band.nbytes for band in bands) == 8 * sum((n + 1) * w for n, w in enumerate(widths))


def _count_band_steps(monkeypatch):
    calls = []
    step = fock._next_rotation_band
    monkeypatch.setattr(fock, "_next_rotation_band", lambda *args: calls.append(1) or step(*args))
    return calls


def test_rotation_memo_serves_a_smaller_input_without_building(monkeypatch):
    monkeypatch.setattr(fock, "_rotation_cache", (0.0, 0, 0, []))
    rng = np.random.default_rng(3)
    amps = rng.normal(size=(12, 40)) + 1j * rng.normal(size=(12, 40))
    fock._apply_rotation(amps, 0.8)
    calls = _count_band_steps(monkeypatch)
    shapes = ((12, 40), (5, 40), (12, 7), (1, 1))
    served = [fock._apply_rotation(amps[:d1, :d2], 0.8) for d1, d2 in shapes]
    assert calls == []
    for (d1, d2), out in zip(shapes, served):
        monkeypatch.setattr(fock, "_rotation_cache", (0.0, 0, 0, []))
        assert np.array_equal(out, fock._apply_rotation(amps[:d1, :d2], 0.8))


def test_rotation_memo_rebuilds_for_a_larger_input(monkeypatch):
    monkeypatch.setattr(fock, "_rotation_cache", (0.0, 0, 0, []))
    rng = np.random.default_rng(4)
    amps = rng.normal(size=(15, 33)) + 1j * rng.normal(size=(15, 33))
    fock._apply_rotation(amps[:6, :20], 1.3)
    calls = _count_band_steps(monkeypatch)
    grown = fock._apply_rotation(amps, 1.3)
    assert len(calls) == 15 + 33 - 2
    assert fock._rotation_cache[1:3] == (15, 33)
    monkeypatch.setattr(fock, "_rotation_cache", (0.0, 0, 0, []))
    assert np.array_equal(grown, fock._apply_rotation(amps, 1.3))


@settings(max_examples=25, deadline=None)
@given(
    r2=strategies.floats(0.0, 1.0),
    delta=strategies.floats(0.0, 2.0 * math.pi),
    psi=strategies.floats(0.0, 2.0 * math.pi),
    s=strategies.floats(0.0, 1.3),
    alpha=strategies.complex_numbers(max_magnitude=3.0),
)
def test_beam_splitter_conserves_norm_and_photons_property(r2, delta, psi, s, alpha):
    inp = sq.product_state(sq.coherent_state(alpha), sq.squeezed_vacuum(SqueezeParams(s)))
    total_before = inp.mean_photons(0) + inp.mean_photons(1)
    out = sq.apply_mode_unitary(inp, sq.BeamSplitterConfig.from_reflectivity(r2, delta=delta, psi=psi).mode_matrix())
    assert abs(out.norm() - 1.0) < 1e-9
    assert abs(out.mean_photons(0) + out.mean_photons(1) - total_before) < 1e-9


def test_coherent_inputs_transform_by_mode_matrix():
    cfg = sq.BeamSplitterConfig.from_reflectivity(0.7, delta=-0.4, psi=0.9)
    m = cfg.mode_matrix()
    a1, a2 = 1.1 - 0.2j, 0.4 + 0.8j
    out = sq.apply_mode_unitary(sq.product_state(sq.coherent_state(a1), sq.coherent_state(a2)), m)
    got = np.array([mode_moments(out, 0)[0], mode_moments(out, 1)[0]])
    assert np.max(np.abs(got - m @ np.array([a1, a2]))) < 1e-8


def test_bs_variance_matches_squeezing_formula():
    """Bright-port variance 1 - r2² + r2² e^{-2s} at the optimal phases."""
    cfg = sq.BeamSplitterConfig.from_reflectivity(math.sqrt(0.3))
    inp = sq.product_state(sq.coherent_state(2.0), sq.squeezed_vacuum(SqueezeParams(0.5)))
    out = sq.apply_mode_unitary(inp, cfg.mode_matrix())
    _, var, _ = sq.quadrature_stats(out, Y0)
    assert abs(var - (1.0 - 0.3 * (1.0 - math.exp(-1.0)))) < 1e-6


def test_nonunitary_coefficients_rejected():
    # the old four-coefficient splitter t1=0.6, r1=0.8, t2=0.8, r2=0.6: lossless rows, but t1 r1 != t2 r2
    matrix = np.array([[0.6, 0.6], [-0.8, 0.8]], dtype=complex)
    inp = sq.product_state(sq.vacuum_state(2), sq.vacuum_state(2))
    with pytest.raises(ValueError, match="not unitary"):
        sq.apply_mode_unitary(inp, matrix)


def test_mixing_requires_two_modes():
    with pytest.raises(ValueError):
        sq.apply_mode_unitary(sq.vacuum_state(4), np.eye(2))
