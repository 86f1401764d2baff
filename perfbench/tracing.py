"""Per-layer tracing from outside the package.

``Tracer`` wraps every public function of the traced su2link modules, plus
``numpy.linalg.eigh`` (reported as ``linalg.eigh``), with a counting and
timing wrapper.  Modules bind functions at import time
(``from .pauli import dense``), so each wrapper is installed under every name
in every su2link module that refers to the original function; leaving the
context restores the originals.

For each wrapped function the tracer records calls, inclusive time, self time
(inclusive time minus the inclusive time of wrapped callees) and exceptions
that escaped it, plus three computed counters: ``pauli.dense.bytes``
(16 * 4^n per call), ``linalg.eigh.max_dim`` and
``dynamics.factor_applications`` (steps * terms per Trotter evolution).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

MODULES = ("pauli", "linalg", "linkmodel", "dynamics", "compiler", "matter", "cli")


def _layer_name(module: str, function: str) -> str:
    # cli.run_sectors is reported as cli.sectors, after the command it runs
    if module == "cli" and function.startswith("run_"):
        function = function[len("run_"):]
    return f"{module}.{function}"


def is_time(metric: str) -> bool:
    return metric.endswith((".s", "_s"))


class Stat:
    """What the tracer records for one wrapped function."""

    __slots__ = ("calls", "s", "self_s", "failed")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.failed = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.counters: dict[str, int] = dict.fromkeys(
            ("pauli.dense.bytes", "linalg.eigh.max_dim", "dynamics.factor_applications"), 0
        )
        self._children: list[float] = []  # wrapped-callee time of each open call
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _wrap(self, name: str, fn, on_call=None):
        stat = self.stats[name]
        children = self._children

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            children.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.failed += 1
                raise
            finally:
                elapsed = time.perf_counter() - start
                stat.calls += 1
                stat.s += elapsed
                stat.self_s += elapsed - children.pop()
                if children:
                    children[-1] += elapsed

        return wrapper

    def _on_dense(self, op, n_qubits, *_, **__):
        self.counters["pauli.dense.bytes"] += 16 * 4**n_qubits

    def _on_eigh(self, a, *_, **__):
        key = "linalg.eigh.max_dim"
        self.counters[key] = max(self.counters[key], int(np.shape(a)[-1]))

    def _on_trotter(self, hamiltonian, plan, *_, **__):
        self.counters["dynamics.factor_applications"] += plan.steps * len(plan.order)

    # -- installing ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        hooks = {"pauli.dense": self._on_dense, "dynamics.trotter_evolve": self._on_trotter}
        wrappers = {}
        for module_name in MODULES:
            module = importlib.import_module(f"su2link.{module_name}")
            for attr, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not attr.startswith("_"):
                    name = _layer_name(module_name, attr)
                    wrappers[obj] = self._wrap(name, obj, hooks.get(name))
        su2link_modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "su2link"]
        for module in su2link_modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])
        self._patch(np.linalg, "eigh", self._wrap("linalg.eigh", np.linalg.eigh, self._on_eigh))
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------

    def calls(self) -> dict[str, int]:
        return {name: stat.calls for name, stat in sorted(self.stats.items()) if stat.calls}

    def metrics(self, time_scale: float = 1.0) -> dict[str, float]:
        """Every recorded quantity by metric name: <layer>.calls/.s/.self_s,
        <module>.failed and the computed counters.  Times are multiplied by
        ``time_scale``."""
        out: dict[str, float] = dict(self.counters)
        failed = dict.fromkeys(MODULES, 0)
        for name, stat in self.stats.items():
            out[f"{name}.calls"] = stat.calls
            out[f"{name}.s"] = stat.s * time_scale
            out[f"{name}.self_s"] = stat.self_s * time_scale
            failed[name.split(".")[0]] += stat.failed
        out.update({f"{module}.failed": count for module, count in failed.items()})
        return out
