"""In-memory spans around the calls the benchmark's workloads make into each layer.

The program itself carries no tracing.  ``Tracer.patched()`` rebinds the
public layer functions at the place where the calling layer looks them up
(a class attribute, or a name imported into another module), wraps each in
a span, and restores every binding on exit.  Spans are kept in memory as
``(name, start, end, parent, op)`` and turned into per-layer metrics by
:func:`layer_metrics` once the traced phase has ended.
"""

from __future__ import annotations

import contextlib
import math
from time import perf_counter

from squeezelab.fock import DEFICIT_TOL


def min_squeezed_dim(s: float, tol: float = DEFICIT_TOL) -> int:
    """Smallest basis dimension whose closed-form squeezed-vacuum norm deficit is <= tol.

    ``|c_2m|² = sech(s) (2m)! / (4^m m!²) tanh(s)^2m``; the dimension of a
    cutoff at occupation 2m is 2m + 1.
    """
    if s == 0.0:
        return 1
    log_t2 = 2.0 * math.log(math.tanh(s))
    log_sech = -math.log(math.cosh(s))
    total = 0.0
    m = 0
    while True:
        log_p = log_sech + math.lgamma(2 * m + 1) - 2 * m * math.log(2.0) - 2 * math.lgamma(m + 1) + m * log_t2
        total += math.exp(log_p)
        if 1.0 - total <= tol:
            return 2 * m + 1
        m += 1


class Tracer:
    """Spans and per-span attributes of one traced phase."""

    def __init__(self):
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.attrs: dict[int, dict] = {}
        self.stack: list[int] = []
        self.op_id = -1
        self.enabled = True
        self.pr_calls: dict[int, int] = {}

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn, *args, attrs=None, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        idx = len(self.name)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self.stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1
        if attrs is not None:
            self.attrs[idx] = attrs(result, *args, **kwargs)
        return result

    def inside(self, name: str) -> bool:
        return any(self.name[i] == name for i in self.stack)

    def wrapped(self, name: str, original, attrs=None):
        """``original`` with a span around every call."""

        def wrapper(*args, **kwargs):
            return self.span(name, original, *args, attrs=attrs, **kwargs)

        return wrapper

    def counted(self, original):
        """``original`` with its calls counted per op, without a span."""

        def counter(*args, **kwargs):
            if self.enabled:
                self.pr_calls[self.op_id] = self.pr_calls.get(self.op_id, 0) + 1
            return original(*args, **kwargs)

        return counter

    @staticmethod
    def call_costs(calls: int = 20000, repeats: int = 5) -> tuple[float, float]:
        """Seconds a wrapped call costs more than a direct one: for a span, and for a count.

        Each is the best of ``repeats`` loops of ``calls`` calls to a function
        that does nothing, so it is the tracer's own cost per call.
        """
        probe = Tracer()
        probe.op_id = 0

        def noop(*args):
            return None

        def per_call(fn) -> float:
            best = math.inf
            for _ in range(repeats):
                t0 = perf_counter()
                for _ in range(calls):
                    fn(1.0)
                best = min(best, perf_counter() - t0)
            return best / calls

        direct = per_call(noop)
        return per_call(probe.wrapped("calibrate", noop)) - direct, per_call(probe.counted(noop)) - direct

    def overhead_share(self, wall: float) -> float:
        """Share of ``wall`` (the traced phase's op time) spent in the tracer's own code.

        Counted as the recorded spans and counts times their calibrated cost
        per call; the per-span attribute functions are left out.
        """
        span_cost, count_cost = self.call_costs()
        return (len(self.name) * span_cost + sum(self.pr_calls.values()) * count_cost) / wall

    # -- patching --------------------------------------------------------

    @contextlib.contextmanager
    def patched(self):
        """Wrap the layer functions of the imported ``squeezelab`` package."""
        import squeezelab.analytic as analytic
        import squeezelab.cli as cli
        import squeezelab.crosscheck as crosscheck
        import squeezelab.fock as fock
        import squeezelab.oscillator as oscillator
        import squeezelab.svgplot as svgplot

        saved = []

        def patch(owner, attr, name, attrs=None):
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, self.wrapped(name, original, attrs))

        def block_shape(_result, ev, *args, **kwargs):
            dims = [blk.eigvals.size for blk in ev.blocks.values()]
            return {"blocks": len(dims), "max_dim": max(dims, default=0)}

        def var_x_role(_result, *args, **kwargs):
            return {"optimizer": self.inside("oscillator.minimize_scalar")}

        def squeezed_dims(state, params, *args, **kwargs):
            return {"dim": state.mode_dims[0], "s": params.s}

        def out_dim(state, *args, **kwargs):
            return {"dim": state.mode_dims[0]}

        def row_count(rows, *args, **kwargs):
            return {"points": len(rows)}

        BE = oscillator.BlockEvolution
        patch(BE, "__init__", "oscillator.build", block_shape)
        patch(BE, "propagate", "oscillator.propagate")
        patch(BE, "observables_at", "oscillator.observables")
        patch(BE, "var_x_at", "oscillator.var_x", var_x_role)
        patch(oscillator, "evolve", "oscillator.evolve")
        patch(oscillator, "minimize_scalar", "oscillator.minimize_scalar")

        patch(crosscheck, "coherent_state", "fock.coherent")
        patch(crosscheck, "squeezed_vacuum", "fock.squeezed", squeezed_dims)
        patch(crosscheck, "product_state", "fock.product")
        patch(crosscheck, "apply_mode_unitary", "fock.mix", out_dim)
        patch(crosscheck, "quadrature_stats", "fock.moments")
        patch(crosscheck, "distance_intensity", "fock.moments")
        for attr in ("beam_splitter_phase_resolution", "beam_splitter_variance",
                     "interferometer_phase_resolution", "interferometer_variance"):
            patch(crosscheck, attr, "analytic.formula")

        patch(cli, "resolution_surface", "analytic.surface", row_count)
        patch(cli, "scheme_phase_resolution_exact", "analytic.scheme")
        patch(cli, "scheme_phase_resolution_approx", "analytic.scheme")
        patch(cli, "beam_splitter_variance", "analytic.formula")
        patch(cli, "interferometer_variance", "analytic.formula")
        patch(svgplot, "heatmap", "svgplot.render")
        patch(svgplot, "line_plot", "svgplot.render")

        # phase_resolution is called per surface point: count it, no span.
        for module in (oscillator, fock, crosscheck, cli, analytic):
            saved.append((module, "phase_resolution", module.phase_resolution))
            module.phase_resolution = self.counted(module.phase_resolution)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- derived times ---------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the part of its interval its children cover."""
        children: dict[int, list[int]] = {}
        for i, p in enumerate(self.parent):
            if p >= 0:
                children.setdefault(p, []).append(i)
        out = []
        for i in range(len(self.name)):
            covered, reach = 0.0, self.start[i]
            for c in sorted(children.get(i, ()), key=self.start.__getitem__):
                lo, hi = max(self.start[c], reach), min(self.end[c], self.end[i])
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append(self.end[i] - self.start[i] - covered)
        return out


def layer_metrics(tracer: Tracer, ops: list[dict], counted_ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced phase.

    Times are seconds per traced op over every traced op.  Counts cover the
    first ``counted_ops`` ops (the phase's first round, which every run
    completes), so that they repeat exactly for a given seed.
    """
    n_ops = max(len(ops), 1)
    n_count = max(counted_ops, 1)
    selfs = tracer.self_times()
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    calls: dict[str, int] = {}
    first_mix = repeat_mix = 0.0
    first_ops = sum(1 for op in ops if op.get("first"))
    repeat_ops = sum(1 for op in ops if op.get("first") is False)
    for i, name in enumerate(tracer.name):
        dur = tracer.end[i] - tracer.start[i]
        total[name] = total.get(name, 0.0) + dur
        self_total[name] = self_total.get(name, 0.0) + selfs[i]
        if tracer.op[i] < counted_ops:
            calls[name] = calls.get(name, 0) + 1
        if name == "fock.mix":
            if ops[tracer.op[i]].get("first"):
                first_mix += dur
            else:
                repeat_mix += dur

    def counted_attrs(name):
        return [a for i, a in tracer.attrs.items() if tracer.name[i] == name and tracer.op[i] < counted_ops]

    builds = counted_attrs("oscillator.build")
    var_x = counted_attrs("oscillator.var_x")
    squeezed = counted_attrs("fock.squeezed")
    mixes = counted_attrs("fock.mix")
    surfaces = counted_attrs("analytic.surface")
    counted = ops[:counted_ops]
    return {
        "oscillator.build_s": total.get("oscillator.build", 0.0) / n_ops,
        "oscillator.builds_per_op": len(builds) / n_count,
        "oscillator.blocks_per_build": sum(b["blocks"] for b in builds) / max(len(builds), 1),
        "oscillator.max_block_dim": max((b["max_dim"] for b in builds), default=0),
        "oscillator.propagate_s": total.get("oscillator.propagate", 0.0) / n_ops,
        "oscillator.propagate_calls": calls.get("oscillator.propagate", 0) / n_count,
        "oscillator.observables_self_s": self_total.get("oscillator.observables", 0.0) / n_ops,
        "oscillator.evolve_s": total.get("oscillator.evolve", 0.0) / n_ops,
        "oscillator.grid_evals_per_op": sum(not v["optimizer"] for v in var_x) / n_count,
        "oscillator.optimizer_evals_per_op": sum(v["optimizer"] for v in var_x) / n_count,
        "fock.coherent_s": total.get("fock.coherent", 0.0) / n_ops,
        "fock.squeezed_s": total.get("fock.squeezed", 0.0) / n_ops,
        "fock.product_s": total.get("fock.product", 0.0) / n_ops,
        "fock.moments_s": total.get("fock.moments", 0.0) / n_ops,
        "fock.moment_calls": calls.get("fock.moments", 0) / n_count,
        "fock.mix_s": total.get("fock.mix", 0.0) / n_ops,
        "fock.mix_first_setting_s": first_mix / max(first_ops, 1),
        "fock.mix_repeat_setting_s": repeat_mix / max(repeat_ops, 1),
        "fock.repeat_setting_share": sum(op.get("first") is False for op in counted) / n_count,
        "fock.mix_out_dim": sum(m["dim"] for m in mixes),
        "fock.squeezed_dim_overshoot": (
            sum(q["dim"] / min_squeezed_dim(q["s"]) for q in squeezed) / len(squeezed) if squeezed else 0.0
        ),
        "crosscheck.self_s": self_total.get("crosscheck", 0.0) / n_ops,
        "analytic.surface_s": total.get("analytic.surface", 0.0) / n_ops,
        "analytic.surface_points": sum(s["points"] for s in surfaces),
        "analytic.scheme_s": total.get("analytic.scheme", 0.0) / n_ops,
        "cli.self_s": self_total.get("cli", 0.0) / n_ops,
        "svgplot.render_s": total.get("svgplot.render", 0.0) / n_ops,
        "metrics.phase_resolution_calls": sum(
            c for op, c in tracer.pr_calls.items() if 0 <= op < counted_ops
        ) / n_count,
    }
