"""Span tracer that times xbarsim's public functions from outside.

``Tracer.installed()`` rebinds every module attribute (and the two
methods) a caller looks up, wraps each in a span recorder, and restores
the originals on exit. A span is (name, start, end, parent); spans are
kept in compact in-memory arrays and written out with ``save``. Self
time is a span's duration minus the time its child spans cover (calls
run one at a time, so children never overlap). Private helpers such as
``_adc_decode`` are not wrapped: their time is their caller's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

# The nine layer kinds that go through SimContext.matmul.
MATMUL_KINDS = (
    "FC_Q", "FC_K", "FC_V", "MATMUL_QKT", "MATMUL_SV",
    "FC_PROJ", "FC_MLP1", "FC_MLP2", "TB_FC",
)


def _count_read(tracer, args, kwargs, result) -> None:
    state, bits = args[0], np.asarray(args[1])
    rows = bits.shape[0] if bits.ndim == 2 else 1
    cells = state.conductances.shape[0]
    noise = args[2] if len(args) > 2 else kwargs.get("noise")
    c = tracer.counters
    if noise is not None and noise.read_var != 0.0:
        c["crossbar.read_currents.noise_draws"] += rows * state.conductances.size
    c["crossbar.read_currents.active_bits"] += float(bits.sum())
    c["crossbar.read_currents.bit_slots"] += rows * cells


def _count_crossbars(tracer, args, kwargs, result) -> None:
    tracer.counters["crossbar.program_matrix.crossbars"] += result.n_crossbars


def _count_simstats(tracer, args, kwargs, result) -> None:
    tracer.counters["simstats.crossbar_matmuls"] += result.stats.crossbar_matmuls
    tracer.counters["simstats.matmul_programmings"] += result.stats.matmul_programmings


def _count_saved_bytes(tracer, args, kwargs, result) -> None:
    tracer.counters["tensorio.save_tensor.bytes"] += os.path.getsize(args[0])


def _count_emitted_bytes(tracer, args, kwargs, result) -> None:
    tracer.counters["report.emit.bytes"] += sum(os.path.getsize(p) for p in result)


def _count_patterns(tracer, args, kwargs, result) -> None:
    tracer.counters["patterns.enumerate_patterns.patterns"] += len(result)


def _count_scorer_lookups(tracer, args, kwargs, result) -> None:
    # The CKA scorer looks up one (source, reuser) pair per reusing encoder.
    tracer.counters["optimize.scorer.lookups"] += len(args[0].reuse_set)


def _count_scorer_cka(tracer, args, kwargs, result) -> None:
    if tracer.top_name() == "optimize.scorer":
        tracer.counters["similarity.cka_score.scorer_misses"] += 1


def _matmul_name(args, kwargs) -> str:
    kind = args[3] if len(args) > 3 else kwargs["kind"]
    return "forward.matmul." + kind.name


@dataclass(frozen=True)
class Target:
    """One traced callable: ``module.attr`` or ``module.cls.attr``.

    ``span`` is a span name, a function of the call's arguments giving
    one, or None for a wrapper that only traces the callable it returns.
    """

    module: str
    attr: str
    span: "str | Callable | None"
    after: Callable | None = None
    cls: str | None = None


_LOADERS = (
    "load_model_config", "load_device_params", "load_tile_config",
    "load_softmax_params", "load_cost_options", "load_pruning_overhead",
    "load_noise_defaults",
)

TARGETS = (
    Target("xbarsim.funcsim.crossbar", "read_currents", "crossbar.read_currents",
           _count_read, cls="CrossbarState"),
    Target("xbarsim.funcsim.crossbar", "mvm_bitserial", "crossbar.mvm_bitserial"),
    Target("xbarsim.funcsim.crossbar", "program_matrix", "crossbar.program_matrix",
           _count_crossbars),
    Target("xbarsim.funcsim.forward", "matmul", _matmul_name, cls="SimContext"),
    Target("xbarsim.funcsim.forward", "model_forward", "forward.model_forward",
           _count_simstats),
    Target("xbarsim.funcsim.forward", "make_toy_weights", "forward.make_toy_weights"),
    Target("xbarsim.funcsim.quant", "quantize", "quant.quantize"),
    Target("xbarsim.funcsim.tensorio", "save_tensor", "tensorio.save_tensor",
           _count_saved_bytes),
    Target("xbarsim.patterns", "enumerate_patterns", "patterns.enumerate_patterns",
           _count_patterns),
    Target("xbarsim.cost", "model_cost", "cost.model_cost"),
    Target("xbarsim.cost", "apply_weight_sharing", "cost.apply_weight_sharing"),
    Target("xbarsim.cost", "apply_token_pruning", "cost.apply_token_pruning"),
    Target("xbarsim.cost", "breakdown", "cost.breakdown"),
    Target("xbarsim.mapping", "crossbars_for_layer", "mapping.crossbars_for_layer"),
    Target("xbarsim.workload", "mac_count", "workload.mac_count"),
    Target("xbarsim.optimize", "find_optimal_n_reuse", "optimize.find_optimal_n_reuse"),
    Target("xbarsim.optimize", "optimize", "optimize.optimize"),
    Target("xbarsim.optimize", "make_cka_scorer", None),
    Target("xbarsim.similarity", "cka_score", "similarity.cka_score", _count_scorer_cka),
    Target("xbarsim.similarity", "cka_matrix", "similarity.cka_matrix"),
    Target("xbarsim.config", "__init__", "config.load", cls="ScenarioConfig"),
    *(Target("xbarsim.config", name, "config.load") for name in _LOADERS),
    Target("xbarsim.report", "run_scenario", "report.run_scenario"),
    Target("xbarsim.report", "format_csv", "report.format"),
    Target("xbarsim.report", "format_breakdown_csv", "report.format"),
    Target("xbarsim.report", "rows_to_json", "report.format"),
    Target("xbarsim.report", "emit", "report.emit", _count_emitted_bytes),
)

ROOT_SPAN = "cli"


class Tracer:
    def __init__(self) -> None:
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._span_name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[list] = []  # [span index, name, child seconds]
        self._open: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.total_s: dict[str, float] = {}  # outermost spans only
        self.self_s: dict[str, float] = {}
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> None:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self._names)
            self._names.append(name)
            self.calls[name] = 0
            self.total_s[name] = self.self_s[name] = 0.0
        idx = len(self._start)
        self._span_name.append(nid)
        self._parent.append(self._stack[-1][0] if self._stack else -1)
        self._end.append(0.0)
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append([idx, name, 0.0])
        self._start.append(perf_counter())

    def close(self) -> float:
        end = perf_counter()
        idx, name, child = self._stack.pop()
        duration = end - self._start[idx]
        self._end[idx] = end
        self.calls[name] += 1
        self.self_s[name] += duration - child
        self._open[name] -= 1
        if not self._open[name]:
            self.total_s[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        return duration

    def top_name(self) -> str | None:
        return self._stack[-1][1] if self._stack else None

    @property
    def n_spans(self) -> int:
        return len(self._start)

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self._names),
            name=np.frombuffer(self._span_name, dtype=np.int32),
            parent=np.frombuffer(self._parent, dtype=np.int32),
            start=np.frombuffer(self._start, dtype=np.float64),
            end=np.frombuffer(self._end, dtype=np.float64),
        )

    # -- patching ----------------------------------------------------------

    def _wrap(self, fn, span, after):
        tracer = self

        if span is None:  # trace the callable this factory returns
            def factory(*args, **kwargs):
                return tracer._wrap(fn(*args, **kwargs), "optimize.scorer",
                                    _count_scorer_lookups)
            return functools.update_wrapper(factory, fn)

        def traced(*args, **kwargs):
            tracer.open(span if isinstance(span, str) else span(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _binding_sites(self, original) -> list[tuple[object, str]]:
        sites = []
        for modname, mod in list(sys.modules.items()):
            if modname == "xbarsim" or modname.startswith("xbarsim."):
                sites.extend((mod, name) for name, value in vars(mod).items()
                             if value is original)
        return sites

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for t in TARGETS:
            module = importlib.import_module(t.module)
            if t.cls is not None:
                owner = getattr(module, t.cls)
                original = owner.__dict__[t.attr]
                sites = [(owner, t.attr)]
            else:
                original = getattr(module, t.attr)
                sites = self._binding_sites(original)
            wrapper = self._wrap(original, t.span, t.after)
            for owner, name in sites:
                self._patches.append((owner, name, original))
                setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.uninstall()


def _per_layer_units() -> dict[str, str]:
    units = {
        "crossbar.read_currents.calls": "count",
        "crossbar.read_currents.s": "s",
        "crossbar.read_currents.us_per_read": "us",
        "crossbar.read_currents.noise_draws": "count",
        "crossbar.read_currents.active_bit_ratio": "ratio",
        "crossbar.mvm_bitserial.calls": "count",
        "crossbar.mvm_bitserial.s": "s",
        "crossbar.mvm_bitserial.self_s": "s",
        "crossbar.program_matrix.calls": "count",
        "crossbar.program_matrix.s": "s",
        "crossbar.program_matrix.crossbars": "count",
    }
    for kind in MATMUL_KINDS:
        units[f"forward.matmul.{kind}.calls"] = "count"
        units[f"forward.matmul.{kind}.s"] = "s"
    units.update({
        "forward.model_forward.calls": "count",
        "forward.model_forward.s": "s",
        "forward.make_toy_weights.s": "s",
        "quant.quantize.calls": "count",
        "quant.quantize.s": "s",
        "tensorio.save_tensor.calls": "count",
        "tensorio.save_tensor.s": "s",
        "tensorio.save_tensor.bytes": "bytes",
        "patterns.enumerate_patterns.calls": "count",
        "patterns.enumerate_patterns.s": "s",
        "patterns.enumerate_patterns.patterns": "count",
        "cost.model_cost.calls": "count",
        "cost.model_cost.s": "s",
        "cost.apply_weight_sharing.s": "s",
        "cost.apply_token_pruning.s": "s",
        "cost.breakdown.s": "s",
        "mapping.crossbars_for_layer.calls": "count",
        "mapping.crossbars_for_layer.s": "s",
        "workload.mac_count.calls": "count",
        "workload.mac_count.s": "s",
        "optimize.find_optimal_n_reuse.calls": "count",
        "optimize.find_optimal_n_reuse.s": "s",
        "optimize.optimize.self_s": "s",
        "optimize.scorer.calls": "count",
        "similarity.cka_score.calls": "count",
        "similarity.cka_score.s": "s",
        "similarity.cka_miss_ratio": "ratio",
        "similarity.cka_matrix.s": "s",
        "config.load.calls": "count",
        "config.load.s": "s",
        "report.run_scenario.calls": "count",
        "report.run_scenario.s": "s",
        "report.format.s": "s",
        "report.emit.s": "s",
        "report.emit.bytes": "bytes",
        "cli.self_s": "s",
        "trace.ops": "count",
        "trace.spans": "count",
        "trace.overhead_pct": "%",
    })
    return units


PER_LAYER_UNITS = _per_layer_units()


def layer_metrics(tracer: Tracer, n_ops: int, overhead_pct: float) -> dict[str, float]:
    """Every per-layer metric named in PER_LAYER_UNITS, for one traced run."""
    c = tracer.counters
    out: dict[str, float] = {}
    for name in PER_LAYER_UNITS:
        span, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = tracer.calls.get(span, 0)
        elif stat == "s":
            out[name] = tracer.total_s.get(span, 0.0)
        elif stat == "self_s":
            out[name] = tracer.self_s.get(span, 0.0)
        else:
            out[name] = c.get(name, 0)
    reads = tracer.calls.get("crossbar.read_currents", 0)
    slots = c.get("crossbar.read_currents.bit_slots", 0)
    lookups = c.get("optimize.scorer.lookups", 0)
    out.update({
        "crossbar.read_currents.us_per_read":
            out["crossbar.read_currents.s"] / reads * 1e6 if reads else 0.0,
        "crossbar.read_currents.active_bit_ratio":
            c.get("crossbar.read_currents.active_bits", 0) / slots if slots else 0.0,
        "similarity.cka_miss_ratio":
            c.get("similarity.cka_score.scorer_misses", 0) / lookups if lookups else 0.0,
        "trace.ops": n_ops,
        "trace.spans": tracer.n_spans,
        "trace.overhead_pct": overhead_pct,
    })
    return out


def simstats_mismatches(tracer: Tracer) -> list[str]:
    """The traced counts that disagree with the simulator's own SimStats."""
    c = tracer.calls
    matmuls = sum(c.get(f"forward.matmul.{k}", 0) for k in MATMUL_KINDS)
    checks = {
        "sum forward.matmul.*.calls": (matmuls, c.get("crossbar.mvm_bitserial", 0)),
        "crossbar.mvm_bitserial.calls": (
            c.get("crossbar.mvm_bitserial", 0),
            tracer.counters.get("simstats.crossbar_matmuls", 0)),
        "crossbar.program_matrix.calls": (
            c.get("crossbar.program_matrix", 0),
            tracer.counters.get("simstats.matmul_programmings", 0)),
    }
    return [f"{what}: {traced} != {expected}"
            for what, (traced, expected) in checks.items() if traced != expected]
