import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

import squeezelab as sq
from squeezelab import crosscheck
from squeezelab.analytic import (
    BeamSplitterConfig,
    InterferometerConfig,
    SchemeParams,
    beam_splitter_phase_resolution,
    beam_splitter_variance,
    resolution_surface,
    interferometer_phase_resolution,
    interferometer_variance,
    scheme_phase_resolution_approx,
    scheme_phase_resolution_exact,
)
from squeezelab.cli import ORACLE_TOLERANCE
from squeezelab.fock import QuadratureSpec, distance_intensity, quadrature_stats


# ---------------------------------------------------------------------------
# beam splitter formulas

def test_variance_no_reflection():
    cfg = BeamSplitterConfig.from_reflectivity(0.0, delta=0.4, psi=-1.0)
    assert beam_splitter_variance(cfg, 1.3, 0.9) == pytest.approx(1.0)


def test_variance_no_squeezing():
    cfg = BeamSplitterConfig.from_reflectivity(0.8, delta=0.4, psi=-1.0)
    for theta in (0.0, 1.0, 3.0):
        assert beam_splitter_variance(cfg, 0.0, theta) == pytest.approx(1.0)


def test_variance_optimal_point():
    cfg = BeamSplitterConfig.from_reflectivity(math.sqrt(0.3))
    want = 1.0 - 0.3 * (1.0 - math.exp(-1.0))
    assert beam_splitter_variance(cfg, 0.5, 0.0) == pytest.approx(want, abs=1e-12)
    # past s = 355, e^{2s} overflows a double; at the optimum the variance is still 1 - r2²
    assert beam_splitter_variance(cfg, 400.0, 0.0) == pytest.approx(0.7, rel=1e-15)


def test_variance_minimized_at_zero_phase_combination():
    cfg = BeamSplitterConfig.from_reflectivity(math.sqrt(0.5))
    scan = np.linspace(-math.pi, math.pi, 721)
    values = [beam_splitter_variance(cfg, 0.8, c) for c in scan]
    i = int(np.argmin(values))
    res = minimize_scalar(
        lambda c: beam_splitter_variance(cfg, 0.8, c),
        bracket=(scan[i - 1], scan[i], scan[i + 1]),
        method="golden",
        options={"xtol": 1e-10},
    )
    assert abs(res.x) < 1e-6


def test_phase_resolution_coherent_only():
    cfg = BeamSplitterConfig.from_reflectivity(0.0)
    assert beam_splitter_phase_resolution(cfg, 1.0, 2.5).s == 2.5


def test_phase_resolution_squeezed_only():
    cfg = BeamSplitterConfig.from_reflectivity(1.0)
    res = beam_splitter_phase_resolution(cfg, 1.0, 0.0)
    assert res.s == pytest.approx(math.sinh(1.0) * math.e, rel=1e-12)
    assert res.s == pytest.approx(3.194528049465325, rel=1e-12)


@pytest.mark.parametrize("make, field", [
    (lambda v: BeamSplitterConfig.from_reflectivity(0.1, delta=v), "delta"),
    (lambda v: BeamSplitterConfig.from_reflectivity(0.1, psi=v), "psi"),
    (lambda v: InterferometerConfig(1.0, psi=v), "psi"),
    (lambda v: InterferometerConfig(1.0, global_phase=v), "global_phase"),
    (lambda v: SchemeParams(v, 0.5, BeamSplitterConfig.from_reflectivity(0.1)), "pump_photons"),
    (lambda v: SchemeParams(1e3, v, BeamSplitterConfig.from_reflectivity(0.1)), "efficiency"),
], ids=["bs-delta", "bs-psi", "in-psi", "in-global_phase", "scheme-pump_photons", "scheme-efficiency"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_configs_reject_non_finite_fields(make, field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        make(value)


def test_lossless_validation():
    with pytest.raises(ValueError, match="outside"):
        BeamSplitterConfig(r2=1.2)
    with pytest.raises(ValueError, match="outside"):
        BeamSplitterConfig.from_reflectivity(1.2)


@settings(max_examples=200, deadline=None)
@given(r2=st.floats(0.05, 1.0), delta=st.floats(-50.0, 50.0), psi=st.floats(-50.0, 50.0), s=st.floats(0.05, 3.0))
def test_variance_at_optimal_theta_is_the_phase_resolution_minimum(r2, delta, psi, s):
    """At ``optimal_theta`` the variance is the optimal-phase formula, and a step of 0.1 either way raises it."""
    cfg = BeamSplitterConfig(r2, delta, psi)
    best = beam_splitter_variance(cfg, s, cfg.optimal_theta)
    assert abs(best - beam_splitter_phase_resolution(cfg, s, 1.0).var_x) <= 1e-13 * best
    for step in (-0.1, 0.1):
        assert best < beam_splitter_variance(cfg, s, cfg.optimal_theta + step)


@pytest.mark.parametrize("build, name", [
    (lambda: BeamSplitterConfig(0.5, delta=1e308), "delta"),
    (lambda: BeamSplitterConfig(0.5, psi=-1e308), "psi"),
    (lambda: BeamSplitterConfig(0.5, delta=1e308, psi=-1e308), "delta"),  # -inf + inf
    (lambda: InterferometerConfig(1.0, global_phase=1e308), "global_phase"),
], ids=["bs-delta", "bs-psi", "bs-nan", "in-global-phase"])
def test_mixer_refuses_a_non_finite_optimal_theta(build, name):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"optimal squeeze phase .*{name}.* must be finite"):
            build()


# ---------------------------------------------------------------------------
# interferometer formulas

def test_interferometer_passes_coherent_straight_through():
    res = interferometer_phase_resolution(math.pi, 1.0, 2.0)
    assert interferometer_variance(math.pi, 1.0) == pytest.approx(1.0)
    assert res.s == pytest.approx(2.0)


def test_interferometer_variance_where_sinh_squared_overflows():
    # past s = 355, sinh(s)² overflows a double; the variance needs only e^{-2s}
    assert interferometer_variance(1.0, 400.0) == pytest.approx(math.sin(0.5) ** 2, rel=1e-15)


@pytest.mark.parametrize("intensity", [
    # the intensity does not depend on the mixer's phases; read it away from zero too
    lambda s: beam_splitter_phase_resolution(BeamSplitterConfig(0.5, delta=0.3, psi=-0.7), s, 2.0).intensity_y,
    lambda s: beam_splitter_phase_resolution(BeamSplitterConfig(0.5), s, 1.0).intensity_y,
    lambda s: interferometer_phase_resolution(2.0, s, 2.0).intensity_y,
    lambda s: interferometer_phase_resolution(1.0, s, 1.0).intensity_y,
], ids=["bs_intensity", "bs_resolution", "in_intensity", "in_resolution"])
def test_intensity_needs_finite_sinh_squared(intensity):
    """Where sinh²(s) overflows, the intensity of either mixer raises as SqueezeParams does, without a warning."""
    assert math.isfinite(intensity(355.0))
    for s in (400.0, 800.0):
        with pytest.raises(ValueError, match=f"s = {s}"):
            sq.SqueezeParams(s)
        with pytest.raises(ValueError, match=f"s = {s}"):
            intensity(s)


def test_interferometer_squeezed_only():
    s = 0.8
    res = interferometer_phase_resolution(0.0, s, 2.0)
    assert res.s == pytest.approx(math.sinh(s) * math.exp(s), rel=1e-12)


def test_mixer_limits_coincide():
    """No-reflection splitter and open interferometer both reduce to |alpha|."""
    for alpha in (1.0, 2.0, 3.0):
        bs = beam_splitter_phase_resolution(BeamSplitterConfig.from_reflectivity(0.0), 0.7, alpha)
        inr = interferometer_phase_resolution(math.pi, 0.7, alpha)
        assert bs.s == alpha == inr.s


def test_interferometer_phi_range():
    with pytest.raises(ValueError):
        InterferometerConfig(phi=-0.1)
    with pytest.raises(ValueError):
        InterferometerConfig(phi=math.pi + 0.1)


def test_mode_matrices_unitary():
    for cfg in (
        BeamSplitterConfig.from_reflectivity(0.6, delta=0.3, psi=-0.7),
        InterferometerConfig(phi=1.1, psi=0.5, global_phase=0.2),
    ):
        m = cfg.mode_matrix()
        assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < 1e-12


# ---------------------------------------------------------------------------
# Fock-space cross-checks

def test_beam_splitter_crosscheck_point():
    cfg = BeamSplitterConfig.from_reflectivity(math.sqrt(0.5))
    rep = sq.beam_splitter_crosscheck(cfg, 0.5, 2.0)
    assert rep.max_rel_err < 1e-4


def test_interferometer_crosscheck_point():
    rep = sq.interferometer_crosscheck(InterferometerConfig(phi=math.pi / 2), 0.5, 2.0)
    assert rep.max_rel_err < 1e-4


def test_crosscheck_reads_one_moment_pass(monkeypatch):
    """The variance and <a†a> of the bright port come from one mode_moments call, bit for bit."""
    states = []
    original = crosscheck.mode_moments
    monkeypatch.setattr(crosscheck, "mode_moments", lambda state, mode: states.append(state) or original(state, mode))
    reports = (sq.beam_splitter_crosscheck(BeamSplitterConfig.from_reflectivity(0.3, delta=0.2), 0.7, 2.0),
               sq.interferometer_crosscheck(InterferometerConfig(phi=1.1, psi=0.3), 0.7, 2.0))
    assert len(states) == 2
    for rep, out in zip(reports, states):
        assert rep.fock_variance == quadrature_stats(out, QuadratureSpec(0, 0.0))[1]
        assert rep.fock_intensity == distance_intensity(out, QuadratureSpec(0, 0.5 * math.pi))


def test_variance_crosscheck_off_optimum():
    cfg = BeamSplitterConfig.from_reflectivity(math.sqrt(0.3), delta=0.2, psi=0.1)
    ana, fock = sq.beam_splitter_variance_crosscheck(cfg, 0.6, theta=1.3, alpha_mag=1.0)
    assert abs(ana - fock) < 1e-8


def test_crosscheck_at_a_huge_theta():
    """The Fock state and the formula read theta = 1e17 alike; reducing it mod 2pi on one side gave 0.255."""
    rep = sq.beam_splitter_crosscheck(BeamSplitterConfig(0.5), 0.5, 1.0, theta=1e17)
    assert rep.max_rel_err < ORACLE_TOLERANCE


@settings(max_examples=4, deadline=None)
@given(r2=st.floats(0.0, 1.0), delta=st.floats(-10.0, 10.0), psi=st.floats(-10.0, 10.0),
       s=st.floats(0.1, 1.0), alpha=st.floats(0.5, 2.0))
def test_beam_splitter_oracle_at_optimal_theta(r2, delta, psi, s, alpha):
    cfg = BeamSplitterConfig(r2, delta, psi)
    rep = sq.beam_splitter_crosscheck(cfg, s, alpha, theta=cfg.optimal_theta)
    assert rep.max_rel_err < ORACLE_TOLERANCE
    assert rep == sq.beam_splitter_crosscheck(cfg, s, alpha)


@settings(max_examples=4, deadline=None)
@given(phi=st.floats(0.0, math.pi), psi=st.floats(-10.0, 10.0), global_phase=st.floats(-10.0, 10.0),
       s=st.floats(0.1, 1.0), alpha=st.floats(0.5, 2.0))
def test_interferometer_oracle_at_optimal_theta(phi, psi, global_phase, s, alpha):
    rep = sq.interferometer_crosscheck(InterferometerConfig(phi, psi, global_phase), s, alpha)
    assert rep.max_rel_err < ORACLE_TOLERANCE


@pytest.mark.parametrize("r2_sq", [0.0, 0.5, 1.0])
def test_variance_oracle_agreement_at_strong_squeezing(r2_sq):
    """Eq-level variance agreement holds to 1e-5 out to s = 1.5."""
    cfg = BeamSplitterConfig.from_reflectivity(math.sqrt(r2_sq))
    ana, fock = sq.beam_splitter_variance_crosscheck(cfg, 1.5, theta=0.4, alpha_mag=3.0)
    assert abs(ana - fock) / abs(ana) < 1e-5


# ---------------------------------------------------------------------------
# the interferometer at phi is the beam splitter at r2 = cos(phi/2)

@settings(max_examples=200, deadline=None)
@given(
    phi=st.just(0.0) | st.floats(0.05, math.pi),
    s=st.floats(0.0, 1.5),
    alpha=st.floats(0.0, 3.0),
    n=st.floats(1.0, 1e12),
    lam=st.floats(1e-12, 1.0),
)
@example(phi=math.pi, s=1.0, alpha=0.0, n=1.0, lam=1e-12)
def test_interferometer_is_beam_splitter_at_cos_half_phi(phi, s, alpha, n, lam):
    """Both mixers are one bright-port formula; only the weights ``(t², r²)`` differ.

    The beam splitter forms ``t² = 1 - r2²`` from ``r2 = cos(phi/2)``, whose
    rounding (up to 2^-52 in ``t²``) exceeds 1e-13 of ``t²`` below phi = 0.05.
    That is why the interferometer forms ``sin²(phi/2)`` directly; phi = 0,
    where ``cos(phi/2)`` is exact, stays in.
    """
    bs = BeamSplitterConfig(math.cos(0.5 * phi))
    in_res, bs_res = interferometer_phase_resolution(phi, s, alpha), beam_splitter_phase_resolution(bs, s, alpha)
    in_scheme, bs_scheme = SchemeParams(n, lam, InterferometerConfig(phi)), SchemeParams(n, lam, bs)
    pairs = [
        (interferometer_variance(phi, s), bs_res.var_x),
        (in_res.intensity_y, bs_res.intensity_y),
        (in_res.s, bs_res.s),
        (scheme_phase_resolution_exact(in_scheme).s, scheme_phase_resolution_exact(bs_scheme).s),
        (scheme_phase_resolution_approx(in_scheme).value, scheme_phase_resolution_approx(bs_scheme).value),
    ]
    for got, want in pairs:
        assert abs(got - want) <= 1e-11 * want


@pytest.mark.parametrize("phi, s, alpha", [(0.4, 0.3, 1.0), (math.pi / 2, 0.5, 2.0), (2.6, 0.8, 1.5)])
def test_interferometer_oracle_is_beam_splitter_oracle(phi, s, alpha):
    """The same identity on the Fock oracle, which builds the two mixers from different mode matrices."""
    rep_in = sq.interferometer_crosscheck(InterferometerConfig(phi), s, alpha)
    rep_bs = sq.beam_splitter_crosscheck(BeamSplitterConfig(math.cos(0.5 * phi)), s, alpha)
    for field in ("fock_variance", "fock_intensity", "fock_s"):
        got, want = getattr(rep_in, field), getattr(rep_bs, field)
        assert abs(got - want) <= 1e-12 * want


@settings(max_examples=200, deadline=None)
@given(n=st.floats(1.0, 1e12), lam=st.floats(1e-12, 1.0))
@example(n=1.0, lam=1e-12)
@example(n=1e12, lam=1.0)
def test_open_interferometer_approx_is_the_coherent_limit(n, lam):
    """At phi = pi, ``r² = cos²(pi/2)`` (about 4e-33) leaves the large-N ratio at exactly ``lambda``."""
    approx = scheme_phase_resolution_approx(SchemeParams(n, lam, InterferometerConfig(math.pi)))
    assert approx.value == approx.limit


# ---------------------------------------------------------------------------
# scheme

def test_scheme_photon_budget():
    params = SchemeParams(1e4, 0.5, BeamSplitterConfig.from_reflectivity(0.1))
    assert params.squeezed_photons == pytest.approx(math.sqrt(5e3))
    assert math.sinh(params.squeeze_parameter) ** 2 == pytest.approx(math.sqrt(5e3), rel=1e-12)
    assert params.coherent_photons == pytest.approx(1e4)


def test_squeeze_parameter_log_form_offset():
    """The log form drops a constant: s_exact - ln(N/2)/4 -> ln 2."""
    for n in (1e6, 1e10, 1e14):
        params = SchemeParams(n, 0.5, BeamSplitterConfig.from_reflectivity(0.1))
        gap = params.squeeze_parameter - 0.25 * math.log(n / 2.0)
        assert gap == pytest.approx(math.log(2.0), abs=10.0 / math.sqrt(n))


def test_scheme_validation():
    mixer = BeamSplitterConfig.from_reflectivity(0.1)
    with pytest.raises(ValueError):
        SchemeParams(0.5, 0.5, mixer)
    with pytest.raises(ValueError):
        SchemeParams(1e3, 0.0, mixer)
    with pytest.raises(ValueError):
        SchemeParams(1e3, 1.5, mixer)


def test_scheme_coherent_only_limit():
    params = SchemeParams(1e5, 0.4, BeamSplitterConfig.from_reflectivity(0.0))
    assert scheme_phase_resolution_exact(params).s == pytest.approx(math.sqrt(2e5 * 0.4), rel=1e-12)


def test_scheme_large_n_small_reflection():
    params = SchemeParams(1e6, 0.5, BeamSplitterConfig.from_reflectivity(0.1))
    exact = scheme_phase_resolution_exact(params).s
    assert exact == pytest.approx(1000.0, rel=0.05)


def test_scheme_squeezed_only_subleading():
    """r2 -> 1 approaches (2N)^{1/2} with a (1/4)(2/N)^{1/2} correction."""
    for n in (1e4, 1e6, 1e8):
        params = SchemeParams(n, 0.5, BeamSplitterConfig.from_reflectivity(1.0))
        exact = scheme_phase_resolution_exact(params).s
        corrected = math.sqrt(2.0 * n) * (1.0 + 0.25 * math.sqrt(2.0 / n))
        assert exact == pytest.approx(corrected, rel=2e-4)
    # leading order alone is off by exactly that correction at modest N
    params = SchemeParams(1e4, 0.5, BeamSplitterConfig.from_reflectivity(1.0))
    ratio = scheme_phase_resolution_exact(params).s / math.sqrt(2e4)
    assert ratio == pytest.approx(1.0 + 0.25 * math.sqrt(2e-4), rel=1e-4)


def test_scheme_approx_tracks_exact():
    for mixer in (
        BeamSplitterConfig.from_reflectivity(0.2),
        InterferometerConfig(phi=math.pi / 2),
    ):
        params = SchemeParams(1e5, 0.5, mixer)
        approx = scheme_phase_resolution_approx(params)
        assert approx.rel_deviation < 1e-3
        assert approx.limit == pytest.approx(math.sqrt(1e5), rel=1e-12)


def test_scheme_exact_equals_limit_when_lossless_coherent():
    params = SchemeParams(1e4, 1.0, BeamSplitterConfig.from_reflectivity(0.0))
    approx = scheme_phase_resolution_approx(params)
    exact = scheme_phase_resolution_exact(params).s
    assert exact == pytest.approx(math.sqrt(2e4), rel=1e-12)
    assert approx.value == pytest.approx(exact, rel=1e-12)
    assert approx.limit == pytest.approx(exact, rel=1e-12)


# ---------------------------------------------------------------------------
# surface

def test_surface_single_point_reduces_to_exact():
    rows = resolution_surface([1e4], [0.3], 0.5, "bs")
    assert len(rows) == 1
    params = SchemeParams(1e4, 0.5, BeamSplitterConfig.from_reflectivity(0.3))
    assert rows[0][2] == pytest.approx(scheme_phase_resolution_exact(params).s, rel=1e-12)


def test_surface_coherent_column():
    n_values = np.geomspace(1e3, 1e6, 4)
    rows = resolution_surface(n_values, [0.0], 0.5, "bs")
    for (n, _, s_exact, _, _) in rows:
        assert s_exact == pytest.approx(math.sqrt(2.0 * n * 0.5), rel=1e-12)


def test_surface_monotonic_in_n():
    n_values = np.geomspace(1e3, 1e7, 9)
    for variant, mix in (("bs", 0.4), ("in", 1.2)):
        rows = resolution_surface(n_values, [mix], 0.5, variant)
        values = [r[2] for r in rows]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_surface_row_smooth_between_endpoints():
    """S(r2) interpolates the two closed-form endpoints without jumps.

    The curve is smooth but stiff near r2 = 1 (the squeezed noise floor
    e^{-2s} sets a boundary layer in 1 - r2²), so the step check uses a
    grid graded in that variable.
    """
    n = 1e5
    u = np.concatenate([np.geomspace(1e-7, 1.0, 120)[::-1], [0.0]])  # u = 1 - r2²
    r2_values = np.sqrt(1.0 - u)
    rows = resolution_surface([n], r2_values, 0.5, "bs")
    values = np.array([r[2] for r in rows])
    params_open = SchemeParams(n, 0.5, BeamSplitterConfig.from_reflectivity(0.0))
    params_closed = SchemeParams(n, 0.5, BeamSplitterConfig.from_reflectivity(1.0))
    assert values[0] == pytest.approx(scheme_phase_resolution_exact(params_open).s, rel=1e-12)
    assert values[-1] == pytest.approx(scheme_phase_resolution_exact(params_closed).s, rel=1e-12)
    assert np.all(np.isfinite(values))
    lo, hi = sorted((values[0], values[-1]))
    assert np.all(values >= lo - 1e-9) and np.all(values <= hi + 1e-9)
    rel_steps = np.abs(np.diff(values)) / values[:-1]
    assert np.max(rel_steps) < 0.02


def test_surface_rejects_unknown_variant():
    with pytest.raises(ValueError):
        resolution_surface([1e3], [0.1], 0.5, "xx")


# the reference for the surface: the scalar scheme functions at each point
def _assert_rows_match_scalar(rows, n_values, mix_values, lam, variant):
    assert isinstance(rows, np.ndarray) and rows.shape == (len(n_values) * len(mix_values), 5)
    points = [(n, m) for n in n_values for m in mix_values]
    for (n, m, s_exact, s_approx, rel_dev), (n_ref, m_ref) in zip(rows, points):
        mixer = BeamSplitterConfig.from_reflectivity(m_ref) if variant == "bs" else InterferometerConfig(phi=m_ref)
        params = SchemeParams(n_ref, lam, mixer)
        exact = scheme_phase_resolution_exact(params).s
        approx = scheme_phase_resolution_approx(params)
        assert (n, m) == (n_ref, m_ref)
        assert abs(s_exact - exact) <= 1e-15 * exact
        assert abs(s_approx - approx.value) <= 1e-15 * approx.value
        assert abs(rel_dev - approx.rel_deviation) <= 1e-15


MIX_MAX = {"bs": 1.0, "in": math.pi}


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["bs", "in"]).flatmap(
        lambda v: st.tuples(st.just(v), st.lists(st.floats(0.0, MIX_MAX[v]), min_size=1, max_size=4))
    ),
    st.lists(st.floats(1.0, 1e9), min_size=1, max_size=4),
    st.floats(0.0, 1.0, exclude_min=True),
)
def test_surface_rows_equal_scalar_formulas(variant_mix, n_values, lam):
    variant, mix_values = variant_mix
    rows = resolution_surface(n_values, mix_values, lam, variant)
    _assert_rows_match_scalar(rows, n_values, mix_values, lam, variant)


@pytest.mark.parametrize("variant, mix", [("bs", 0.0), ("bs", 1.0), ("in", 0.0), ("in", math.pi)])
def test_surface_edges_match_scalar_without_warnings(variant, mix):
    n_values = [1.0, 1e3, 1e9]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = resolution_surface(n_values, [mix], 0.5, variant)
        _assert_rows_match_scalar(rows, n_values, [mix], 0.5, variant)


BS = BeamSplitterConfig.from_reflectivity(0.2)


@pytest.mark.parametrize("n_values, mix_values, lam, variant, scalar", [
    ([1e3, 0.5], [0.2], 0.5, "bs", lambda: SchemeParams(0.5, 0.5, BS)),
    ([1e3, math.nan], [0.2], 0.5, "bs", lambda: SchemeParams(math.nan, 0.5, BS)),
    ([1e3, math.inf], [0.2], 0.5, "in", lambda: SchemeParams(math.inf, 0.5, BS)),
    ([1e3], [0.2, 1.5], 0.5, "bs", lambda: BeamSplitterConfig.from_reflectivity(1.5)),
    ([1e3], [math.nan], 0.5, "bs", lambda: BeamSplitterConfig.from_reflectivity(math.nan)),
    ([1e3], [0.2, 4.0], 0.5, "in", lambda: InterferometerConfig(4.0)),
    ([1e3], [-0.1, 0.2], 0.5, "in", lambda: InterferometerConfig(-0.1)),
    ([1e3], [0.2], 0.0, "bs", lambda: SchemeParams(1e3, 0.0, BS)),
    ([1e3], [0.2], 1.5, "in", lambda: SchemeParams(1e3, 1.5, BS)),
    ([1e3], [0.2], math.nan, "bs", lambda: SchemeParams(1e3, math.nan, BS)),
], ids=["N-below-1", "N-nan", "N-inf", "r2-above-1", "r2-nan", "phi-above-pi", "phi-negative",
        "lambda-0", "lambda-above-1", "lambda-nan"])
def test_surface_rejects_bad_values_as_scalar_configs_do(n_values, mix_values, lam, variant, scalar):
    with pytest.raises(ValueError) as expected:
        scalar()
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        resolution_surface(n_values, mix_values, lam, variant)


@pytest.mark.parametrize("call, name", [
    (lambda: beam_splitter_phase_resolution(BeamSplitterConfig(1.0), 0.5, 1e200), "|alpha|^2"),
    (lambda: interferometer_phase_resolution(1.0, 0.5, 1e200), "|alpha|^2"),
    (lambda: scheme_phase_resolution_exact(SchemeParams(1e308, 0.9, BS)), "2 N lambda"),
    (lambda: resolution_surface([1e300, 1e308], [0.1, 0.9], 0.9), "2 N lambda"),
], ids=["bs", "in", "scheme", "surface"])
def test_overflowing_coherent_photon_number_is_refused_by_name(call, name):
    """Refused before any S is formed, and without a warning (RuntimeWarning is an error in this suite)."""
    with pytest.raises(ValueError, match=f"^the coherent photon number {re.escape(name)} must be finite, got inf$"):
        call()


# ---------------------------------------------------------------------------
# closed forms against 50-digit arithmetic

@settings(max_examples=200, deadline=None)
@given(
    variant_mix=st.sampled_from(["bs", "in"]).flatmap(
        lambda v: st.tuples(st.just(v), st.floats(0.0, MIX_MAX[v]))
    ),
    n=st.floats(1.0, 1e12),
    lam=st.floats(1e-12, 1.0),
)
@example(variant_mix=("bs", 0.0), n=1.0, lam=1e-12)
@example(variant_mix=("bs", 1.0), n=1e12, lam=1.0)
@example(variant_mix=("bs", 1.0), n=1.0, lam=1e-12)
@example(variant_mix=("in", 0.0), n=1e12, lam=1e-12)
@example(variant_mix=("in", math.pi), n=1.0, lam=1.0)
@example(variant_mix=("in", math.pi), n=1e12, lam=1e-12)
def test_scheme_approx_is_the_documented_ratio(variant_mix, n, lam):
    """The large-N value, the port fed the large-N moments, is ``[2N (lam t² + r² x) / (t² + r² x)]^{1/2}``."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    variant, mix = variant_mix
    mixer = BeamSplitterConfig(mix) if variant == "bs" else InterferometerConfig(mix)
    got = scheme_phase_resolution_approx(SchemeParams(n, lam, mixer)).value
    mix_, n_, lam_ = mp.mpf(mix), mp.mpf(n), mp.mpf(lam)
    t_sq, r_sq = (1 - mix_**2, mix_**2) if variant == "bs" else (mp.sin(mix_ / 2) ** 2, mp.cos(mix_ / 2) ** 2)
    x = 1 / mp.sqrt(8 * n_)
    exact = mp.sqrt(2 * n_ * (lam_ * t_sq + r_sq * x) / (t_sq + r_sq * x))
    assert abs(got - exact) <= 1e-15 * exact


@settings(max_examples=200, deadline=None)
@given(
    n=st.floats(1.0, 1e12),
    r2=st.floats(0.0, 1.0 - 1e-12),
    phi=st.floats(1e-8, math.pi),
    theta=st.floats(-math.pi, math.pi),
)
@example(n=1e12, r2=1.0 - 1e-12, phi=1e-8, theta=0.0)
@example(n=1e12, r2=1.0 - 1e-12, phi=1e-8, theta=1e-8)
def test_closed_form_variances_match_50_digit_arithmetic(n, r2, phi, theta):
    """The variances keep full relative accuracy where they are small (large N, r2 near 1, phi near 0)."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 50
    s = float(np.arcsinh((n / 2.0) ** 0.25))  # the scheme's squeeze parameter
    cfg = BeamSplitterConfig.from_reflectivity(r2)
    r2_, s_, half_phi, half_c = mp.mpf(r2), mp.mpf(s), mp.mpf(phi) / 2, mp.mpf(theta) / 2
    cases = [
        (beam_splitter_phase_resolution(cfg, s, 1.0).var_x, 1 - r2_**2 + r2_**2 * mp.exp(-2 * s_)),
        (interferometer_variance(phi, s), mp.sin(half_phi) ** 2 + mp.exp(-2 * s_) * mp.cos(half_phi) ** 2),
        (
            beam_splitter_variance(cfg, s, theta),
            1 - r2_**2 + r2_**2 * (mp.exp(-2 * s_) * mp.cos(half_c) ** 2 + mp.exp(2 * s_) * mp.sin(half_c) ** 2),
        ),
    ]
    for got, exact in cases:
        assert abs(got - exact) <= 4e-15 * exact
