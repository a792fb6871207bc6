"""In-memory span recorder for the perf harness, installed only by ``--trace 1``.

Every layer is timed from *outside* the library: the recorder replaces
public class methods and module functions of ``repro`` with wrappers
that record a span around each call, and puts the originals back on
:meth:`Recorder.uninstall`. Nothing under ``src/`` knows it is traced.

- Class methods are patched on the class that defines them, so every
  instance and every subclass that does not override them is traced.
- Module functions are patched at *every* binding of the function object
  in a loaded ``repro.*`` module: ``from .evaluator import
  evaluate_allocations_batch`` copies the function into the importing
  module, and a caller there would otherwise bypass the wrapper.

A span records its name, start, end, parent span and the measurement
round it belongs to. Spans stay in memory and are written as JSONL once
the run ends (:meth:`Recorder.write_jsonl`).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


def _rows_of(result) -> int:
    """Matrices in a batched call's result (its leading axis)."""
    return len(result)


def _one(result) -> int:
    return 1


def _admm_iterations(args, kwargs, result) -> int:
    """ADMM iterations one ``fine_tune_batch`` call ran."""
    iterations = kwargs.get("iterations", args[4] if len(args) > 4 else None)
    return int(args[0].iterations if iterations is None else iterations)


def _lp_iterations(args, kwargs, result) -> int:
    return int(result.iterations)


def _reward(args, kwargs, result):
    return result


#: Traced entry points: (layer, module, qualified name, rows, value).
#: ``rows`` maps a call's result to the matrices it processed; ``value``
#: (optional) keeps a per-call quantity on the span.
TARGETS = (
    ("core.teal", "repro.core.teal", "TealScheme.allocate", _one, None),
    ("core.teal", "repro.core.teal", "TealScheme.allocate_batch", _rows_of, None),
    ("core.model", "repro.core.model", "TealModel.split_ratios", _one, None),
    ("core.model", "repro.core.model", "TealModel.split_ratios_batch", _rows_of, None),
    (
        "core.admm", "repro.core.admm", "AdmmFineTuner.fine_tune_batch",
        _rows_of, _admm_iterations,
    ),
    ("lp.objectives", "repro.lp.objectives", "Objective.reward", _one, _reward),
    ("lp.objectives", "repro.lp.objectives", "Objective.reward_batch", _rows_of, _reward),
    ("simulation.evaluator", "repro.simulation.evaluator", "evaluate_allocation", _one, None),
    (
        "simulation.evaluator", "repro.simulation.evaluator",
        "evaluate_allocations_batch", _rows_of, None,
    ),
    ("simulation.streaming", "repro.simulation.streaming", "StreamingEngine.run", _one, None),
    ("simulation.online", "repro.simulation.online", "OnlineSimulator.run", _one, None),
    ("sweep.grid", "repro.sweep.grid", "run_scenario_grid", _one, None),
    ("harness", "repro.harness", "build_scenario", _one, None),
    ("harness", "repro.harness", "trained_teal", _one, None),
    ("harness", "repro.harness", "run_failure_sweep", _one, None),
    ("harness", "repro.harness", "run_online_failure_sweep", _one, None),
    ("core.direct_loss", "repro.core.direct_loss", "DirectLossTrainer.train", _one, None),
    ("core.coma", "repro.core.coma", "ComaTrainer.train", _one, None),
    ("topology", "repro.topology.generators", "get_topology", _one, None),
    ("topology", "repro.topology.generators", "provision_capacities", _one, None),
    ("traffic", "repro.traffic.trace", "TrafficTrace.generate", _one, None),
    ("paths", "repro.paths.pathset", "PathSet.from_topology", _one, None),
    ("paths", "repro.paths.pathset", "PathSet.__init__", _one, None),
    ("baselines.lp_all", "repro.baselines.lp_all", "LpAll.allocate", _one, None),
    ("lp", "repro.lp.formulation", "build_lp", _one, None),
    ("lp", "repro.lp.solver", "solve_lp", _one, _lp_iterations),
)


class Patches:
    """Attribute replacements on classes and modules, undone in reverse order."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def __bool__(self) -> bool:
        return bool(self._saved)

    def set(self, owner, attr: str, value) -> None:
        # vars() yields the raw descriptor (a classmethod object, not the
        # bound method), which is what must be put back.
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def function_bindings(fn) -> list[tuple[object, str]]:
    """Every (module, attribute) of a loaded ``repro.*`` module bound to ``fn``."""
    found = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is fn:
                found.append((module, attr))
    return found


@dataclass
class Span:
    """One timed call into a traced entry point."""

    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    phase: str = "setup"
    round: int | None = None
    rows: int = 0
    value: object = None

    @property
    def layer(self) -> str:
        return self.name.split(":", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Records spans around the :data:`TARGETS` while installed.

    ``phase`` and ``round`` are set by the workload driving the run and
    stamped on every span opened meanwhile.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self.round: int | None = None
        self._stack: list[int] = []
        self._patches = Patches()

    def _wrap(self, fn, name: str, rows, value):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(
                name, time.perf_counter(), parent=stack[-1] if stack else None,
                phase=self.phase, round=self.round,
            )
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            span.rows = rows(result)
            if value is not None:
                span.value = value(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every target (idempotent)."""
        if self._patches:
            return
        for layer, module_name, qualname, rows, value in TARGETS:
            module = importlib.import_module(module_name)
            name = f"{layer}:{qualname}"
            if "." in qualname:
                class_name, attr = qualname.split(".")
                owner = getattr(module, class_name)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, name, rows, value))
                else:
                    wrapped = self._wrap(raw, name, rows, value)
                self._patches.set(owner, attr, wrapped)
            else:
                fn = getattr(module, qualname)
                wrapped = self._wrap(fn, name, rows, value)
                for owner, attr in function_bindings(fn):
                    self._patches.set(owner, attr, wrapped)

    def uninstall(self) -> None:
        self._patches.restore()

    def write_jsonl(self, path) -> None:
        """Write one JSON object per span, in opening order."""
        with open(path, "w") as handle:
            for span in self.spans:
                value = span.value
                if hasattr(value, "tolist"):
                    value = value.tolist()
                record = {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "phase": span.phase,
                    "round": span.round,
                    "rows": span.rows,
                }
                if value is not None:
                    record["value"] = value
                handle.write(json.dumps(record) + "\n")


class SpanStats:
    """Per-layer and per-name aggregates over a subset of spans."""

    def __init__(self, spans: list[Span], phase: str) -> None:
        self.spans = spans
        self.chosen = [i for i, s in enumerate(spans) if s.phase == phase]
        self.children: dict[int | None, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            self.children[span.parent].append(i)

    def self_time(self, index: int) -> float:
        span = self.spans[index]
        return span.duration - sum(
            self.spans[c].duration for c in self.children[index]
        )

    def _inside_same_layer(self, index: int) -> bool:
        layer = self.spans[index].layer
        parent = self.spans[index].parent
        while parent is not None:
            if self.spans[parent].layer == layer:
                return True
            parent = self.spans[parent].parent
        return False

    def layer(self, layer: str) -> dict:
        """Time (outermost spans of the layer only, so nested calls of one
        layer count once), self time, calls and rows of one layer."""
        picked = [i for i in self.chosen if self.spans[i].layer == layer]
        outer = [i for i in picked if not self._inside_same_layer(i)]
        return {
            "seconds": sum(self.spans[i].duration for i in outer),
            "self_seconds": sum(self.self_time(i) for i in picked),
            "calls": len(outer),
            "rows": sum(self.spans[i].rows for i in outer),
        }

    def named(self, name: str) -> list[Span]:
        return [self.spans[i] for i in self.chosen if self.spans[i].name == name]

    def roots(self) -> list[int]:
        """Top-level spans: the calls the workload itself made."""
        return [i for i in self.chosen if self.spans[i].parent is None]

    def coverage(self) -> list[float]:
        """Share of each top-level span covered by its child spans."""
        shares = []
        for i in self.roots():
            duration = self.spans[i].duration
            if duration > 0:
                shares.append(1.0 - self.self_time(i) / duration)
        return shares

    def accept_counts(self) -> tuple[int, int]:
        """(kept, scored) ADMM results, from the acceptance-check rewards.

        TealScheme and StreamingEngine score the fine-tuned ratios first
        and the warm start second, then keep the fine-tuned ones when the
        first reward is at least the second; so consecutive reward calls
        under one parent form (tuned, raw) pairs.
        """
        by_parent: dict[int | None, list] = defaultdict(list)
        for i in self.chosen:
            span = self.spans[i]
            if span.layer == "lp.objectives":
                by_parent[span.parent].append(span.value)
        kept = scored = 0
        for values in by_parent.values():
            for tuned, raw in zip(values[0::2], values[1::2]):
                accept = np.atleast_1d(np.asarray(tuned) >= np.asarray(raw))
                kept += int(accept.sum())
                scored += accept.size
        return kept, scored
