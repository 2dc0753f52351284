"""The benchmark's tracer patches names that exist, and puts every binding back."""

import importlib.util
from pathlib import Path

import squeezelab.analytic as analytic
import squeezelab.cli as cli
import squeezelab.crosscheck as crosscheck
import squeezelab.fock as fock
import squeezelab.oscillator as oscillator
import squeezelab.svgplot as svgplot

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

OWNERS = (analytic, cli, crosscheck, fock, oscillator, svgplot, oscillator.BlockEvolution)


def _bindings():
    return {(owner.__name__, name): value for owner in OWNERS for name, value in vars(owner).items()}


def test_tracer_patches_and_restores_every_binding():
    before = _bindings()
    with tracing.Tracer().patched() as tracer:
        inside = _bindings()
        _, variance, _ = crosscheck.quadrature_stats(fock.vacuum_state(3), fock.QuadratureSpec(0, 0.0))
    changed = {key for key, value in inside.items() if before.get(key) is not value}
    assert inside.keys() == before.keys()
    assert {("squeezelab.crosscheck", "quadrature_stats"), ("squeezelab.crosscheck", "distance_intensity"),
            ("BlockEvolution", "propagate"), ("squeezelab.oscillator", "minimize_scalar")} <= changed
    assert variance == 1.0 and tracer.name == ["fock.moments"]
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
