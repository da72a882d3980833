"""Per-layer tracing of opcalc, attached from outside the library.

``Tracer`` replaces the public functions of each opcalc module (and a few
named methods) with wrappers that record one span per call: name, start,
end and the index of the enclosing span.  Spans stay in memory until the
traced pass ends; ``metrics()`` then derives call counts, inclusive
seconds and self seconds per layer and per named stage.  Leaving the
``with`` block restores every original attribute.

opcalc modules call each other through module attributes
(``torus.apply_multiplier``) and their own functions through module
globals, which are the same dictionary, so patching the module attribute
reaches every caller.  ``cli.PROBES`` holds the original ``probe_*``
references, so its entries are wrapped separately.
"""

from __future__ import annotations

import collections
import functools
import importlib
import inspect
import json
import pathlib
import time

LAYERS = ("symbols", "matcalc", "torus", "krylov", "hodge", "quadest", "dacorr", "cli")

PROBE_NAMES = (
    "symbol", "mikhlin", "hodge-const", "hodge-var", "perturb", "quadest", "translated",
    "reproducing", "schur", "offdiag", "block", "holomorphy", "lipschitz",
)

# stage -> span names.  A stage's seconds sum its outermost spans, so a
# member called inside another member is not counted twice.
STAGES = {
    "symbols.eval": ("symbols.HomogeneousSymbol.__call__",),
    "symbols.verify": ("symbols.verify_symbol_conditions", "symbols.verify_hodge_pair"),
    "symbols.mikhlin": ("symbols.mikhlin_probe",),
    "torus.kernel_range": ("torus.kernel_range_multipliers",),
    "matcalc.spectral_split": ("matcalc.spectral_split",),
    "hodge.constant_hodge_projections": ("hodge.constant_hodge_projections",),
    "torus.resolvent_multipliers": ("torus.resolvent_multipliers",),
    "quadest.bandpass": ("quadest.bandpass_fields_constant", "quadest.bandpass_fields_variable"),
    "quadest.reproducing": ("quadest.reproducing_sum", "quadest.reproducing_residual"),
    "torus.apply_multiplier": ("torus.apply_multiplier",),
    "torus.field_checks": ("torus.GridField.__post_init__", "torus.MultiplierOp.__post_init__"),
    "krylov.gmres": ("krylov.gmres",),
    "hodge.variable_resolvent": ("hodge.variable_resolvent",),
    "dacorr.contour_calculus": ("dacorr.contour_calculus",),
    "hodge.dense_operator": ("hodge.dense_operator",),
    "matcalc.contour_fc": ("matcalc.contour_fc",),
    "cli.run_suite": ("cli.run_suite",),
    "cli.report_write": ("cli.report_write",),
    **{f"cli.probe.{p}": (f"cli.probe.{p}",) for p in PROBE_NAMES},
}

# counters filled by the adapters below, with their units; fft bytes are
# input plus output array sizes, not measured memory traffic
COUNTERS = {
    "symbols.eval.points": "count",
    "torus.kernel_range.freqs": "count",
    "torus.fft.count": "count",
    "torus.fft.bytes": "bytes_computed",
    "krylov.gmres.iterations": "count",
    "krylov.gmres.matvecs": "count",
    "krylov.gmres.unconverged": "count",
    "krylov.gmres.max_residual": "rel",
    "dacorr.contour_calculus.nodes": "count",
    "dacorr.contour_calculus.dense_calls": "count",
    "dacorr.contour_calculus.gmres_calls": "count",
    "dacorr.shifted_precond.calls": "count",
    "cli.report.bytes": "bytes",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {}
    for layer in LAYERS:
        units.update({f"{layer}.calls": "count", f"{layer}.s": "s", f"{layer}.self_s": "s"})
    for stage in STAGES:
        if not stage.startswith("cli.probe."):  # one call per probe: the count says nothing
            units[f"{stage}.calls"] = "count"
        units[f"{stage}.s"] = "s"
    units.update(COUNTERS)
    units.update({"trace.spans": "count", "trace.overhead_s": "s"})
    return units


class Tracer:
    """Context manager that traces every opcalc call made inside it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: collections.Counter = collections.Counter()
        self._stack: list[int] = []
        self._undo: list = []

    def __enter__(self) -> "Tracer":
        mods = {layer: importlib.import_module(f"opcalc.{layer}") for layer in LAYERS}
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                public = not attr.startswith("_") and inspect.isfunction(fn)
                if public and fn.__module__ == mod.__name__:  # skip imported names
                    self._patch(mod, attr, f"{layer}.{attr}")
        symbols, torus, cli = mods["symbols"], mods["torus"], mods["cli"]
        self._patch(symbols.HomogeneousSymbol, "__call__", "symbols.HomogeneousSymbol.__call__")
        self._patch(torus.GridField, "__post_init__", "torus.GridField.__post_init__")
        self._patch(torus.MultiplierOp, "__post_init__", "torus.MultiplierOp.__post_init__")
        self._patch(cli.ProbeReport, "to_json", "cli.report_write")
        self._patch(pathlib.Path, "write_text", "cli.report_write", _write_text)
        for key, fn in list(cli.PROBES.items()):
            cli.PROBES[key] = self._wrap(f"cli.probe.{key}", fn)
            self._undo.append(functools.partial(cli.PROBES.__setitem__, key, fn))
        return self

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()
        return False

    def _patch(self, owner, attr, name, adapter=None):
        original = getattr(owner, attr)
        # an attribute inherited from a base class is shadowed, then removed again
        undo = (functools.partial(setattr, owner, attr, original) if attr in vars(owner)
                else functools.partial(delattr, owner, attr))
        setattr(owner, attr, self._wrap(name, original, adapter))
        self._undo.append(undo)

    def _wrap(self, name, fn, adapter=None):
        adapter = adapter or ADAPTERS.get(name)
        inner = adapter(self, fn) if adapter else fn
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return inner(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer and per-stage metrics of the spans recorded so far."""
        out = dict.fromkeys(metric_units(), 0)
        out.update(self.counts)
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        groups_of = {}
        for stage, names in STAGES.items():
            for n in names:
                groups_of.setdefault(n, [n.split(".", 1)[0]]).append(stage)
        # inside[i]: the layers and stages open within span i.  Parents
        # precede their children in the list, so one forward sweep fills it.
        inside: list[frozenset] = []
        memo = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            groups = groups_of.get(name) or (name.split(".", 1)[0],)
            outer = inside[parent] if parent >= 0 else frozenset()
            dur = end - start
            out[f"{groups[0]}.calls"] += 1
            out[f"{groups[0]}.self_s"] += dur - child[i]
            for g in groups:
                if g not in outer:
                    out[f"{g}.s"] += dur
            for stage in groups[1:]:
                if f"{stage}.calls" in out:
                    out[f"{stage}.calls"] += 1
            key = (outer, name)
            if key not in memo:
                memo[key] = outer.union(groups)
            inside.append(memo[key])
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path: pathlib.Path) -> None:
        """Write the spans as JSON: a name table and [name, start, end, parent] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(a - t0, 7), round(b - t0, 7), p] for n, a, b, p in self.spans]
        path.write_text(json.dumps({"names": names, "spans": rows}, separators=(",", ":")))


# ---------------------------------------------------------------------------
# Adapters: count work from a traced call's arguments and results.  Each
# takes the tracer and the original callable and returns a stand-in with
# the same signature; the span wrapper goes around the stand-in.
# ---------------------------------------------------------------------------


def _symbol_eval(tr, fn):
    def call(self, xi):
        out = fn(self, xi)
        tr.counts["symbols.eval.points"] += out.size // (out.shape[-1] * out.shape[-2])
        return out

    return call


def _kernel_range(tr, fn):
    def call(s, grid, *args, **kwargs):
        tr.counts["torus.kernel_range.freqs"] += grid.size
        return fn(s, grid, *args, **kwargs)

    return call


def _fft(tr, fn):
    def call(u):
        hat = fn(u)
        tr.counts["torus.fft.count"] += 1
        tr.counts["torus.fft.bytes"] += u.values.nbytes + hat.nbytes
        return hat

    return call


def _ifft(tr, fn):
    def call(grid, hat):
        out = fn(grid, hat)
        tr.counts["torus.fft.count"] += 1
        tr.counts["torus.fft.bytes"] += hat.nbytes + out.values.nbytes
        return out

    return call


def _gmres(tr, fn):
    c = tr.counts

    def call(matvec, b, **kwargs):
        def counted(vec):
            c["krylov.gmres.matvecs"] += 1
            return matvec(vec)

        x, info = fn(counted, b, **kwargs)
        c["krylov.gmres.iterations"] += info.iterations
        c["krylov.gmres.unconverged"] += not info.converged
        c["krylov.gmres.max_residual"] = max(c["krylov.gmres.max_residual"], info.residual)
        return x, info

    return call


def _contour_calculus(tr, fn):
    def call(apply_fn, u, f, contour, **kwargs):
        first = len(tr.spans)
        out = fn(apply_fn, u, f, contour, **kwargs)
        # the path taken is read off the spans: the GMRES path opens krylov spans
        gmres = any(s[0] == "krylov.gmres" for s in tr.spans[first:])
        tr.counts[f"dacorr.contour_calculus.{'gmres' if gmres else 'dense'}_calls"] += 1
        tr.counts["dacorr.contour_calculus.nodes"] += (
            len(contour.pieces()) * contour.nodes_per_segment
        )
        return out

    return call


def _shifted_precond(tr, fn):
    def call(*args, **kwargs):
        factory = fn(*args, **kwargs)

        def counted(z):
            tr.counts["dacorr.shifted_precond.calls"] += 1
            return factory(z)

        return counted

    return call


def _write_text(tr, fn):
    def call(self, data, *args, **kwargs):
        tr.counts["cli.report.bytes"] += len(data.encode("utf-8"))
        return fn(self, data, *args, **kwargs)

    return call


ADAPTERS = {
    "symbols.HomogeneousSymbol.__call__": _symbol_eval,
    "torus.kernel_range_multipliers": _kernel_range,
    "torus.fft_field": _fft,
    "torus.ifft_field": _ifft,
    "krylov.gmres": _gmres,
    "dacorr.contour_calculus": _contour_calculus,
    "dacorr.shifted_symbol_precond": _shifted_precond,
}
