import inspect
import json
import math
import os
import subprocess
import sys
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

import squeezelab.cli as cli
from squeezelab import OscillatorConfig, oscillator, resolution_surface
from squeezelab.cli import main, parse_range
from squeezelab.crosscheck import relative_error
from squeezelab.oscillator import BlockEvolution, default_t_max


def read_json(path):
    return json.loads(path.read_text())


def test_parse_range():
    assert list(parse_range("1:5:linear:5")) == [1.0, 2.0, 3.0, 4.0, 5.0]
    geo = parse_range("4:64:geometric:5")
    assert geo[0] == pytest.approx(4.0) and geo[-1] == pytest.approx(64.0)
    assert geo[2] == pytest.approx(16.0)
    with pytest.raises(ValueError):
        parse_range("1:2:3")
    with pytest.raises(ValueError):
        parse_range("1:5:cubic:5")
    with pytest.raises(ValueError):
        parse_range("-1:5:geometric:5")
    for spec in ("4:inf:geometric:3", "nan:1:linear:3", "-1.7e308:1.7e308:linear:3"):
        with pytest.raises(ValueError, match="must be finite"):
            parse_range(spec)


def test_simulate_writes_trajectory(tmp_path):
    assert main(["simulate", "--kind", "degenerate", "--N", "16", "--points", "50",
                 "--outdir", str(tmp_path)]) == 0
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,var_X,intensity_Y,pump_n"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    summary = read_json(tmp_path / "summary.json")
    assert summary["schema"] == 1
    assert summary["var_min"] < 1.0
    assert summary["S"] > 1.0


def _solves_each_block_of_its_slabs_once(solves, osc):
    """The memo solves whole slabs of 16 blocks: each block of the run's slabs once, and no other."""
    sizes = [args[0].size for args in solves]  # a block's coupling count is half its charge
    wanted = [int(q) // 2 for slab, *_ in BlockEvolution(osc).slabs for q in slab.charges]
    return sorted(sizes) == wanted


def test_simulate_default_window_solves_each_block_once(tmp_path, monkeypatch, count_calls):
    """With the default points and t_max, the search and the trajectory share the block solves, evolve() on that grid."""
    from squeezelab.oscillator import evolve

    osc = OscillatorConfig("degenerate", 16.0)
    grid = np.linspace(0.0, default_t_max(osc), 200)  # the --points default
    want = evolve(osc, grid)
    cli._write_csv(
        tmp_path / "want.csv",
        ["t", "var_X", "intensity_Y", "pump_n"],
        zip(want.times, want.var_x, want.intensity_y, want.pump_n),
    )
    monkeypatch.setattr(oscillator, "_solve_cache", {})
    solves = count_calls(oscillator, "_sublattice_solve")
    out = tmp_path / "out"
    assert main(["simulate", "--kind", "degenerate", "--N", "16", "--outdir", str(out)]) == 0
    assert _solves_each_block_of_its_slabs_once(solves, osc)
    assert read_json(out / "summary.json")["config"]["t_max"] == default_t_max(osc)
    assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + grid.size
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_simulate_vacuum_pump_flat(tmp_path):
    assert main(["simulate", "--kind", "degenerate", "--N", "0", "--points", "30",
                 "--t-max", "2.0", "--outdir", str(tmp_path)]) == 0
    rows = (tmp_path / "trajectory.csv").read_text().splitlines()[1:]
    assert all(float(r.split(",")[1]) == pytest.approx(1.0, abs=1e-12) for r in rows)


def test_simulate_deterministic_outputs(tmp_path):
    args = ["simulate", "--kind", "degenerate", "--N", "8", "--points", "40",
            "--outdir", str(tmp_path)]
    assert main(args) == 0
    first_csv = (tmp_path / "trajectory.csv").read_bytes()
    first_json = (tmp_path / "summary.json").read_bytes()
    assert main(args) == 0
    assert (tmp_path / "trajectory.csv").read_bytes() == first_csv
    assert (tmp_path / "summary.json").read_bytes() == first_json


def test_config_echo_round_trip(tmp_path):
    outdir = tmp_path / "run"
    assert main(["simulate", "--kind", "nondegenerate", "--N", "6", "--points", "30",
                 "--outdir", str(outdir)]) == 0
    summary = read_json(outdir / "summary.json")
    csv_bytes = (outdir / "trajectory.csv").read_bytes()
    echo = tmp_path / "config.json"
    echo.write_text(json.dumps(summary["config"]))
    assert main(["simulate", "--config", str(echo)]) == 0
    assert read_json(outdir / "summary.json")["config"] == summary["config"]
    assert (outdir / "trajectory.csv").read_bytes() == csv_bytes


def test_flags_override_config_file(tmp_path):
    echo = tmp_path / "config.json"
    echo.write_text(json.dumps({"variant": "bs", "r2": 0.0, "alpha": 1.0, "outdir": str(tmp_path)}))
    assert main(["mix", "--config", str(echo), "--alpha", "3"]) == 0
    payload = read_json(tmp_path / "mix.json")
    assert payload["config"]["alpha"] == 3.0
    assert payload["S"] == pytest.approx(3.0)


def test_mix_coherent_only(tmp_path):
    assert main(["mix", "--variant", "bs", "--r2", "0", "--alpha", "3",
                 "--outdir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "mix.json")
    assert payload["S"] == pytest.approx(3.0)
    assert payload["variance"] == pytest.approx(1.0)


def test_mix_interferometer_oracle(tmp_path):
    assert main(["mix", "--variant", "in", "--phi", "0", "--s", "1", "--oracle",
                 "--outdir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "mix.json")
    assert payload["S"] == pytest.approx(math.sinh(1.0) * math.e, rel=1e-9)
    assert payload["oracle"]["within_tolerance"] is True
    assert payload["oracle"]["max_rel_err"] < 1e-4


def test_mix_s_finite_where_the_ratio_overflows(tmp_path):
    """S is formed as sqrt(I) / sqrt(V): here I / V overflows, S = 1.4e154 does not."""
    assert main(["mix", "--variant", "in", "--phi", "1.0", "--s", "355", "--alpha", "1",
                 "--outdir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "mix.json")
    assert payload["intensity"] > 1e307 * payload["variance"]
    assert payload["S"] == pytest.approx(1.4e154, rel=0.05)
    assert payload["S"] == pytest.approx(math.sqrt(payload["intensity"]) / math.sqrt(payload["variance"]), rel=1e-15)


def test_mix_off_optimum_theta_oracle(tmp_path):
    assert main(["mix", "--variant", "bs", "--r2", "0.55", "--s", "0.5", "--alpha", "1",
                 "--theta", "0.8", "--oracle", "--outdir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "mix.json")
    oracle = payload["oracle"]
    assert oracle["within_tolerance"] is True
    assert set(oracle) == {"analytic_variance", "fock_variance", "analytic_intensity", "fock_intensity", "analytic_S",
                           "fock_S", "max_rel_err", "tolerance", "within_tolerance"}
    errors = [relative_error(oracle[f"analytic_{key}"], oracle[f"fock_{key}"]) for key in ("variance", "intensity", "S")]
    assert oracle["max_rel_err"] == max(errors)
    assert (oracle["analytic_variance"], oracle["analytic_intensity"], oracle["analytic_S"]) == (
        payload["variance"], payload["intensity"], payload["S"])
    assert payload["variance"] > 1.0 - 0.55**2  # worse than the optimum


@pytest.mark.parametrize("offset", [5e-13, -5e-13])
def test_mix_theta_within_1e_12_of_the_optimum_gets_the_full_oracle(tmp_path, offset):
    """theta just above and just below the optimum -2 delta - 2 psi gets the full report, as any theta does."""
    theta = -2.0 * 0.2 - 2.0 * 0.1 + offset
    assert main(["mix", "--variant", "bs", "--r2", "0.5", "--delta", "0.2", "--psi", "0.1", "--s", "0.5",
                 "--alpha", "1", "--theta", repr(theta), "--oracle", "--outdir", str(tmp_path)]) == 0
    assert "fock_intensity" in read_json(tmp_path / "mix.json")["oracle"]


def test_scheme_command(tmp_path):
    assert main(["scheme", "--N", "1e6", "--lambda", "0.5", "--variant", "bs",
                 "--r2", "0.1", "--outdir", str(tmp_path)]) == 0
    payload = read_json(tmp_path / "scheme.json")
    assert payload["S_exact"] == pytest.approx(1000.0, rel=0.05)
    assert payload["S_limit"] == pytest.approx(1000.0)
    assert payload["derived"]["squeezed_photons"] == pytest.approx(math.sqrt(5e5))


def test_surface_command(tmp_path):
    assert main(["surface", "--variant", "bs", "--N", "1e3:1e5:geometric:3",
                 "--mix", "0:1:linear:4", "--lambda", "0.5", "--svg",
                 "--outdir", str(tmp_path)]) == 0
    lines = (tmp_path / "surface.csv").read_text().splitlines()
    assert lines[0] == "N,r2_or_phi,S_exact,S_approx,rel_dev"
    assert len(lines) == 1 + 3 * 4
    rows = resolution_surface(parse_range("1e3:1e5:geometric:3"), parse_range("0:1:linear:4"), 0.5, "bs")
    assert lines[1:] == [",".join(repr(float(v)) for v in row) for row in rows]
    assert (tmp_path / "surface.svg").exists()
    assert (tmp_path / "surface.svg").read_text().startswith("<svg")


def test_sweep_command(tmp_path):
    assert main(["sweep", "--kind", "degenerate", "--N", "4:16:geometric:3", "--svg",
                 "--outdir", str(tmp_path)]) == 0
    fits = read_json(tmp_path / "fits.json")
    assert fits["schema"] == 1
    assert -0.7 < fits["var_min_fit"]["exponent"] < -0.2
    assert 0.3 < fits["s_fit"]["exponent"] < 0.7
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert rows[0] == "N,t_sq,var_min,S,S_min_angle"
    assert len(rows) == 4
    assert (tmp_path / "sweep.svg").exists()


def test_sweep_above_140_photons(tmp_path):
    """Pumps past the 6-sigma cutoff floor's validity run instead of exiting with code 3."""
    assert main(["sweep", "--kind", "nondegenerate", "--N", "141:150:linear:3",
                 "--outdir", str(tmp_path)]) == 0
    rows = (tmp_path / "sweep.csv").read_text().splitlines()
    assert len(rows) == 4
    assert all(0.0 < float(row.split(",")[2]) < 1.0 for row in rows[1:])


def test_sweep_solves_each_block_once_across_its_points(tmp_path, monkeypatch, count_calls):
    """The points share the (kind, charge) memo: one solve per block of the largest N, none again."""
    monkeypatch.setattr(oscillator, "_solve_cache", {})
    solves = count_calls(oscillator, "_sublattice_solve")
    assert main(["sweep", "--kind", "nondegenerate", "--N", "4:16:geometric:3", "--outdir", str(tmp_path)]) == 0
    assert _solves_each_block_of_its_slabs_once(solves, OscillatorConfig("nondegenerate", 16.0))


def test_cli_import_leaves_scipy_optimize_and_sparse_linalg_unloaded():
    """Starting the program loads neither: only the dense route and ``oscillator.minimize_scalar`` import them, when called."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, squeezelab.cli; print(sorted({'scipy.optimize', 'scipy.sparse.linalg'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


def test_oscillator_annotations_name_only_what_the_module_holds():
    """Every annotation of ``oscillator``'s functions and methods resolves: none names the lazily imported ``sparse``."""
    own = [obj for obj in vars(oscillator).values() if getattr(obj, "__module__", None) == oscillator.__name__]
    functions = [obj for obj in own if inspect.isfunction(obj)]
    functions += [f for cls in own if inspect.isclass(cls) for f in vars(cls).values() if inspect.isfunction(f)]
    assert oscillator._ladder_sparse in functions
    for function in functions:
        typing.get_type_hints(function)


def test_invalid_arguments_exit_2(capsys):
    """Argparse refuses an unknown kind, and a --coupling: time is in units of 1/coupling, so no command takes one."""
    refused = "unrecognized arguments: --coupling 0.7"
    for argv, message in [
        (["simulate", "--kind", "triply-degenerate", "--N", "4"], "invalid choice: 'triply-degenerate'"),
        (["simulate", "--kind", "degenerate", "--N", "4", "--coupling", "0.7"], refused),
        (["sweep", "--kind", "degenerate", "--N", "4:9:geometric:3", "--coupling", "0.7"], refused),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("n_spec, mix_spec, bad, reason", [
    ("a:1e4:geometric:2", "0:1:linear:3", "a:1e4:geometric:2", "could not convert string to float: 'a'"),
    ("1e3:1e4:geometric:x", "0:1:linear:3", "1e3:1e4:geometric:x", "invalid literal for int() with base 10: 'x'"),
    ("1e3:1e4:geometric:2", "0:b:linear:3", "0:b:linear:3", "could not convert string to float: 'b'"),
    ("1e3:1e4:geometric:2", "0:1:linear:x", "0:1:linear:x", "invalid literal for int() with base 10: 'x'"),
], ids=["N-endpoint", "N-count", "mix-endpoint", "mix-count"])
def test_surface_range_error_names_its_spec(tmp_path, capsys, n_spec, mix_spec, bad, reason):
    """``surface`` reads two range specs; a number that does not parse is reported with the spec it is in."""
    assert main(["surface", "--N", n_spec, "--mix", mix_spec, "--lambda", "0.5", "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"configuration error: range spec {bad!r}: {reason}\n"
    assert not (tmp_path / "surface.csv").exists()


def test_validation_failure_exit_2(tmp_path):
    assert main(["mix", "--variant", "bs", "--r2", "2.0", "--alpha", "1",
                 "--outdir", str(tmp_path)]) == 2
    assert main(["simulate", "--N", "4", "--outdir", str(tmp_path)]) == 2  # missing kind


@pytest.mark.parametrize("flag,value", [("--N", "inf"), ("--N", "nan"), ("--pump-phase", "nan")])
def test_non_finite_oscillator_parameter_exit_2(tmp_path, capsys, flag, value):
    n, extra = (value, []) if flag == "--N" else ("4", [flag, value])
    code = main(["simulate", "--kind", "degenerate", "--N", n, *extra, "--outdir", str(tmp_path)])
    assert code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()


@pytest.mark.parametrize("argv, file_cfg", [
    (["sweep", "--kind", "degenerate", "--N", "4:inf:geometric:3"], None),
    (["surface", "--N", "nan:1e4:linear:3", "--mix", "0:1:linear:3"], None),
    (["surface", "--N", "1e3:inf:geometric:3", "--mix", "0:1:linear:3"], None),
    (["surface", "--N", "1e3:1e4:geometric:3", "--mix", "0:nan:linear:3"], None),
    (["scheme", "--N", "nan", "--lambda", "0.5", "--r2", "0.1"], None),
    (["mix", "--variant", "bs", "--r2", "0.3", "--s", "nan"], None),
    (["mix", "--variant", "bs", "--r2", "0.3", "--alpha", "nan"], None),
    (["mix", "--variant", "bs", "--r2", "0.3", "--delta", "nan"], None),
    (["mix", "--variant", "in", "--phi", "1.0", "--psi", "inf"], None),
    (["scheme"], {"N": math.nan, "efficiency": 0.5, "r2": 0.1}),
    (["mix"], {"variant": "bs", "r2": 0.3, "s": math.inf}),
    (["mix", "--variant", "bs", "--r2", "0.5", "--s", "400", "--alpha", "1"], None),  # sinh(s)^2 overflows
    (["mix", "--variant", "bs", "--r2", "0.5", "--s", "800", "--alpha", "1"], None),  # sinh(s) overflows
    (["mix", "--variant", "bs", "--r2", "0.5", "--s", "-1", "--alpha", "1"], None),
    # |alpha|^2 or 2 N lambda overflows
    (["mix", "--variant", "bs", "--r2", "0.5", "--s", "0.5", "--alpha", "1e200"], None),
    (["mix", "--variant", "bs", "--r2", "1", "--s", "0.5", "--alpha", "1e200"], None),
    (["scheme", "--variant", "bs", "--r2", "0.5", "--N", "1e308", "--lambda", "0.9"], None),
    (["surface", "--variant", "bs", "--N", "1e300:1e308:geometric:3", "--mix", "0.1:0.9:linear:3", "--lambda", "0.9"],
     None),
    # the optimal squeeze phase overflows
    (["mix", "--variant", "bs", "--r2", "0.5", "--delta", "1e308", "--s", "0.5", "--alpha", "1"], None),
    (["mix", "--variant", "in", "--phi", "1", "--global-phase", "1e308", "--s", "0.5", "--alpha", "1"], None),
], ids=["sweep-N-inf", "surface-N-nan", "surface-N-inf", "surface-mix-nan", "scheme-N-nan", "mix-s-nan",
        "mix-alpha-nan", "mix-delta-nan", "mix-psi-inf", "config-scheme-N-nan", "config-mix-s-inf",
        "mix-s-400", "mix-s-800", "mix-s-negative",
        "mix-alpha-1e200", "mix-r2-1-alpha-1e200", "scheme-N-1e308", "surface-N-1e308", "mix-bs-delta-1e308",
        "mix-in-global-phase-1e308"])
def test_non_finite_input_exit_2_before_any_work(tmp_path, capsys, argv, file_cfg):
    out = tmp_path / "out"
    if file_cfg is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(file_cfg))  # NaN and Infinity, as json writes them
        argv = [*argv, "--config", str(config)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--outdir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("configuration error: ") and "finite" in captured.err
    assert captured.out == ""
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_pump_phase_away_from_x_quadrature_exit_2(tmp_path, capsys, command):
    n = "16" if command == "simulate" else "4:16:geometric:3"
    code = main([command, "--kind", "degenerate", "--N", n, "--pump-phase", "3.14159",
                 "--outdir", str(tmp_path)])
    assert code == 2
    assert "configuration error: pump phase 3.14159" in capsys.readouterr().err
    assert not (tmp_path / "summary.json").exists()
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_through_a_pump_below_the_block_weight_exit_2_without_output(tmp_path, capsys):
    """At N = 1e-20 every pump block but the vacuum is dropped, so S = 0 and its fit is refused before any write."""
    code = main(["sweep", "--kind", "degenerate", "--N", "1e-20:4:geometric:3", "--outdir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == (
        "configuration error: power-law fit requires strictly positive data, got y = 0.0 at x = 1e-20\n"
    )
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("extra, message", [
    (["--points", "0"], "--points must be at least 1, got 0"),
    (["--t-max", "-1"], "--t-max must be >= 0, got -1.0"),
    (["--points", "1", "--t-max", "-1"], "--t-max must be >= 0, got -1.0"),
    (["--points", "3", "--t-max", "5e-324"], "--t-max 5e-324 is too small for 3 distinct times"),
], ids=["points-0", "t-max-negative", "one-point-t-max-negative", "t-max-subnormal"])
def test_simulate_bad_grid_exit_2_before_the_optimum_search(tmp_path, capsys, monkeypatch, extra, message):
    def no_search(*args, **kwargs):
        raise AssertionError("simulate started the optimum search")

    monkeypatch.setattr(cli, "find_optimal_squeezing", no_search)
    monkeypatch.setattr(BlockEvolution, "__init__", no_search)
    assert main(["simulate", "--kind", "degenerate", "--N", "4", *extra, "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not any(tmp_path.iterdir())


def test_simulate_past_the_propagator_range_exit_2_without_output(tmp_path, capsys):
    """At t = 5e307 the largest eigenphase of the N = 4 blocks overflows; the grid is refused, not written as NaN."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["simulate", "--kind", "degenerate", "--N", "4", "--t-max", "1e308", "--points", "3",
                     "--outdir", str(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("configuration error: time 5e+307 is past the propagator's range")
    assert not any(tmp_path.iterdir())


def test_truncation_failure_exit_3(tmp_path, capsys):
    # s = 8 needs a squeezed-vacuum cutoff of about 9.3e7, above MAX_CUTOFF
    code = main(["mix", "--variant", "bs", "--r2", "0.5", "--s", "8", "--alpha", "1",
                 "--oracle", "--outdir", str(tmp_path)])
    assert code == 3
    assert "squeezed vacuum s=8: needs a cutoff above the largest one" in capsys.readouterr().err
    # an 18 x 31167 input would need a 31184² output and its rotation bands, about 80 GiB
    code = main(["mix", "--variant", "bs", "--r2", "0.5", "--s", "4", "--alpha", "1",
                 "--oracle", "--outdir", str(tmp_path)])
    assert code == 3
    assert "mixing a 18 x 31167 input needs 79.7 GiB" in capsys.readouterr().err


@pytest.mark.parametrize("extra", [[], ["--points", "57", "--t-max", "0.9"]])
def test_simulate_trajectory_equals_evolve_on_requested_grid(tmp_path, monkeypatch, count_calls, extra):
    """trajectory.csv is evolve() on the requested grid, the default one included."""
    from squeezelab import cli
    from squeezelab.oscillator import OscillatorConfig, evolve, find_optimal_squeezing

    osc = OscillatorConfig("nondegenerate", 30.0)
    opt = find_optimal_squeezing(osc)
    grid = np.linspace(0.0, 0.9, 57) if extra else np.linspace(0.0, default_t_max(osc), 200)
    want = evolve(osc, grid)
    cli._write_csv(
        tmp_path / "want.csv",
        ["t", "var_X", "intensity_Y", "pump_n"],
        zip(want.times, want.var_x, want.intensity_y, want.pump_n),
    )
    monkeypatch.setattr(oscillator, "_solve_cache", {})
    solves = count_calls(oscillator, "_sublattice_solve")
    assert main(["simulate", "--kind", "nondegenerate", "--N", "30", *extra, "--outdir", str(tmp_path)]) == 0
    assert _solves_each_block_of_its_slabs_once(solves, osc)  # the optimum search and a requested grid share the solves
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    summary = read_json(tmp_path / "summary.json")
    assert (summary["t_sq"], summary["var_min"], summary["S"]) == (opt.t_sq, opt.var_min, opt.resolution.s)


# ---------------------------------------------------------------------------
# parameter tables: flags, the --config file and the echo

OUTPUT_JSON = {"simulate": "summary.json", "sweep": "fits.json", "mix": "mix.json",
               "scheme": "scheme.json", "surface": "surface.json"}


@pytest.mark.parametrize("argv", [
    ["simulate", "--kind", "degenerate", "--N", "4", "--points", "20", "--svg"],
    ["sweep", "--kind", "nondegenerate", "--N", "2:6:linear:3", "--pump-phase", "0.2"],
    ["mix", "--variant", "bs", "--r2", "0.3", "--s", "0.4", "--alpha", "1"],
    ["mix", "--variant", "bs", "--r2", "0.3", "--delta", "0.2", "--s", "0.4", "--alpha", "1", "--oracle"],
    ["mix", "--variant", "bs", "--r2", "0.3", "--s", "0.4", "--alpha", "1", "--theta", "0.8", "--oracle"],
    ["mix", "--variant", "in", "--phi", "1.1", "--psi", "0.3", "--s", "0.4", "--alpha", "1", "--oracle"],
    ["scheme", "--variant", "bs", "--N", "1e4", "--lambda", "0.3", "--r2", "0.2"],
    ["scheme", "--variant", "in", "--N", "1e4", "--lambda", "0.3", "--phi", "1.2"],
    ["surface", "--variant", "bs", "--N", "1e3:1e5:geometric:3", "--mix", "0.1:0.9:linear:3", "--svg"],
    ["surface", "--variant", "in", "--N", "1e3:1e5:geometric:3", "--mix", "0.1:3:linear:3",
     "--lambda", "0.7", "--svg"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv if a.startswith("--") or a == argv[0]))
def test_config_echo_reproduces_flags(tmp_path, argv):
    from squeezelab.cli import COMMANDS

    command = argv[0]
    assert main([*argv, "--outdir", str(tmp_path)]) == 0
    outputs = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    echo = read_json(tmp_path / OUTPUT_JSON[command])["config"]
    variant = echo.get("variant")
    assert set(echo) == {p.key for p in COMMANDS[command].params if p.variant in (None, variant)}

    for path in tmp_path.iterdir():
        path.unlink()
    config = tmp_path.parent / f"{tmp_path.name}-echo.json"
    config.write_text(json.dumps(echo))
    assert main([command, "--config", str(config)]) == 0
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == outputs

    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0


def test_missing_config_file_exit_2(tmp_path, capsys):
    missing = tmp_path / "nonexistent.json"
    assert main(["mix", "--config", str(missing), "--variant", "bs", "--r2", "0.1",
                 "--outdir", str(tmp_path)]) == 2
    assert f"configuration error: cannot read --config {missing}" in capsys.readouterr().err


def test_unknown_config_key_exit_2(tmp_path, capsys):
    """A typo is refused by name, and so is an older echo's "cutoff" (mix), "jobs" (sweep) or "coupling"."""
    config = tmp_path / "config.json"
    for command, file_cfg, key in [
        ("mix", {"variant": "bs", "r2": 0.5, "detla": 0.3}, "detla"),
        ("mix", {"variant": "bs", "r2": 0.5, "s": 0.5, "alpha": 1.0, "oracle": True, "cutoff": None}, "cutoff"),
        ("sweep", {"kind": "degenerate", "N": "4:9:geometric:3", "jobs": 1}, "jobs"),
        ("sweep", {"kind": "degenerate", "N": "4:9:geometric:3", "coupling": 1.0, "pump_phase": 0.0}, "coupling"),
        ("simulate", {"kind": "degenerate", "N": 16.0, "coupling": 1.0, "pump_phase": 0.0, "points": 200,
                      "t_max": 1.25, "svg": False}, "coupling"),
    ]:
        config.write_text(json.dumps({**file_cfg, "outdir": str(tmp_path)}))
        assert main([command, "--config", str(config)]) == 2
        assert f"unknown parameter(s) {key}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("argv, file_cfg, named", [
    (["mix", "--variant", "in", "--phi", "1", "--theta", "0.3", "--s", "0.5", "--alpha", "1"], None, "--theta"),
    (["mix", "--variant", "bs", "--r2", "0.4", "--s", "0.5", "--alpha", "1"], {"global_phase": 0.2},
     "--config key global_phase"),
    (["scheme", "--variant", "bs", "--r2", "0.3", "--phi", "2", "--N", "1e4", "--lambda", "0.3"], None, "--phi"),
    (["scheme", "--variant", "in", "--phi", "2", "--N", "1e4", "--lambda", "0.3"], {"r2": 0.3}, "--config key r2"),
], ids=["mix-flag", "mix-file-key", "scheme-flag", "scheme-file-key"])
def test_other_variant_parameter_exit_2(tmp_path, capsys, argv, file_cfg, named):
    """A flag or file key that only the other mixer reads is refused by name, not dropped."""
    out = tmp_path / "out"
    if file_cfg is not None:
        config = tmp_path / "config.json"
        config.write_text(json.dumps(file_cfg))
        argv = [*argv, "--config", str(config)]
    assert main([*argv, "--outdir", str(out)]) == 2
    variant = argv[argv.index("--variant") + 1]
    other = "bs" if variant == "in" else "in"
    assert capsys.readouterr().err == (
        f"configuration error: {named} is for --variant {other} only, got --variant {variant}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command, file_cfg, reason", [
    ("scheme", {"variant": "xyz", "N": 1e4, "efficiency": 0.5}, "argument --variant: invalid choice: 'xyz'"),
    ("simulate", {"kind": "triply-degenerate", "N": 4}, "argument --kind: invalid choice"),
    ("simulate", {"kind": "degenerate", "N": 4, "points": 20.5}, "argument --points: invalid literal"),
    ("surface", {"N": "1:2:linear:3", "mix": "0:1:linear:3", "svg": "false"}, "argument --svg: expected true or false"),
], ids=["variant-choice", "kind-choice", "points-int", "svg-bool"])
def test_config_file_values_checked_like_flags(tmp_path, capsys, command, file_cfg, reason):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({**file_cfg, "outdir": str(tmp_path)}))
    assert main([command, "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"configuration error: {reason}" in err
    assert "missing required parameter" not in err


def test_missing_parameter_names_its_flag(tmp_path, capsys):
    assert main(["scheme", "--N", "1e6", "--variant", "bs", "--r2", "0.1", "--outdir", str(tmp_path)]) == 2
    assert "missing required parameter --lambda" in capsys.readouterr().err


def test_sweep_too_few_points_exit_2_before_running(tmp_path, capsys):
    assert main(["sweep", "--kind", "degenerate", "--N", "4:16:geometric:2",
                 "--outdir", str(tmp_path)]) == 2
    assert "need at least 3 points, got 2" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize("spec", ["0:400:linear:3", "-2:8:linear:3"])
def test_sweep_nonpositive_n_exit_2_before_running(tmp_path, capsys, count_calls, spec):
    points = count_calls(cli, "find_optimal_squeezing")
    assert main(["sweep", "--kind", "degenerate", f"--N={spec}", "--outdir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "need every N > 0, got N = " + spec.split(":")[0] in err
    assert points == [] and list(tmp_path.iterdir()) == []


def test_sweep_over_one_distinct_n_exit_2_before_running(tmp_path, capsys, count_calls):
    """Three equal N leave the power-law fit no spread to fit; refused before any point runs."""
    points = count_calls(cli, "find_optimal_squeezing")
    assert main(["sweep", "--kind", "degenerate", "--N", "4:4:linear:3", "--outdir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "configuration error: --N: the power-law fits need distinct N, got only N = 4\n"
    assert points == [] and list(tmp_path.iterdir()) == []


def test_output_directory_that_is_a_file_exit_2(tmp_path, capsys):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    assert main(["scheme", "--N", "1e6", "--lambda", "0.5", "--r2", "0.1", "--outdir", str(blocker)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert blocker.read_text() == ""


