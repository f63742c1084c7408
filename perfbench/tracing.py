"""Spans and counts recorded around the program's public functions.

The program itself is not instrumented: :func:`install` replaces selected
public methods and module functions with wrappers that record a span
(name, start, end, parent) per call, plus a few counts read at the same
boundary.  Spans stay in memory (packed arrays, ~22 bytes each) until
:meth:`Recorder.summary` folds them into per-name call counts, total time
and self time (duration minus the part covered by child spans).

Wrappers record only in the process that installed them: pool workers
forked from a traced process inherit the wrappers but pass straight
through, so a traced suite run reports parent-side spans only.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array


class Recorder:
    """Collects spans and counts for one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def span(self, fn, name: str, *, before=None, after=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``before(args)`` runs ahead of the call and its value is handed to
        ``after(state, args, result)``, which runs once the call returns.
        """
        name_id = self._name_id(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack, pid, getpid, clock = self._stack, self.pid, os.getpid, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if getpid() != pid:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            index = len(start)
            name_of.append(name_id)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(index)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if after is not None:
                after(state, args, result)
            return result

        return traced

    def counter(self, fn, name: str):
        """Wrap ``fn`` so each call only bumps the count ``name``."""
        counts, pid, getpid = self.counts, self.pid, os.getpid

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if getpid() == pid:
                counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def summary(self) -> dict:
        """Per-span-name ``calls``/``total_s``/``self_s`` plus the counts."""
        count = len(self.start)
        child_s = [0.0] * count
        for index in range(count):
            up = self.parent[index]
            if up >= 0:
                child_s[up] += self.end[index] - self.start[index]
        spans: dict[str, dict] = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names
        }
        for index in range(count):
            entry = spans[self.names[self.name_of[index]]]
            duration = self.end[index] - self.start[index]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - child_s[index]
        return {"spans": spans, "counts": dict(self.counts), "span_count": count}


def _patch_method(cls, name: str, wrapped_factory) -> None:
    setattr(cls, name, wrapped_factory(getattr(cls, name)))


def _patch_function(module, name: str, wrapped_factory) -> None:
    """Replace ``module.name`` and every ``repro`` module's binding of it."""
    original = getattr(module, name)
    wrapped = wrapped_factory(original)
    for loaded in list(sys.modules.values()):
        if (
            getattr(loaded, "__name__", "").startswith("repro")
            and getattr(loaded, name, None) is original
        ):
            setattr(loaded, name, wrapped)


def install(recorder: Recorder) -> None:
    """Wrap the layer boundaries of every already-imported ``repro`` layer."""
    modules = sys.modules
    span = recorder.span

    def spans_as(name, **hooks):
        return lambda fn: span(fn, name, **hooks)

    if "repro.noc.model" in modules:
        from repro.noc.model import NoCModel

        def count_movements(_state, _args, movements):
            recorder.add("model.movements", len(movements))

        for phase in ("inject_from_sources", "inject_packet", "apply_movements",
                      "record_cycle_overheads", "finish_epoch"):
            _patch_method(NoCModel, phase, spans_as(f"model.{phase}"))
        _patch_method(NoCModel, "step_routers",
                      spans_as("model.step_routers", after=count_movements))
        for setter in ("set_global_dvfs_level", "set_dvfs_level",
                       "set_routing_algorithm", "set_enabled_vcs"):
            _patch_method(NoCModel, setter, spans_as("model.reconfigure"))

    if "repro.engines.cycle" in modules:
        from repro.engines.cycle import CycleEngine

        def engine_before(args):
            model = args[0].model
            return model.cycle, model.idle_cycles, model.skipped_router_steps

        def engine_after(state, args, _result):
            model = args[0].model
            recorder.add("engine.cycles", model.cycle - state[0])
            recorder.add("engine.idle_cycles", model.idle_cycles - state[1])
            recorder.add("engine.skipped_router_steps",
                         model.skipped_router_steps - state[2])

        _patch_method(CycleEngine, "run",
                      spans_as("engine.run", before=engine_before, after=engine_after))

    if "repro.traffic.generator" in modules:
        from repro.traffic.generator import TrafficGenerator

        def count_packets(_state, _args, packets):
            recorder.add("traffic.packets", len(packets))

        _patch_method(TrafficGenerator, "generate",
                      spans_as("traffic.generate", after=count_packets))
        _patch_method(TrafficGenerator, "next_injection_cycle",
                      lambda fn: recorder.counter(fn, "traffic.next_injection_cycle.calls"))

    if "repro.noc.power" in modules:
        from repro.noc.power import PowerModel

        _patch_method(PowerModel, "accrue_leakage_increments",
                      spans_as("power.accrue_leakage_increments"))

    if "repro.core.environment" in modules:
        from repro.core.environment import NoCConfigEnv

        _patch_method(NoCConfigEnv, "step", spans_as("env.step"))
        _patch_method(NoCConfigEnv, "reset", spans_as("env.reset"))

    if "repro.rl.dqn" in modules:
        from repro.rl.dqn import DQNAgent

        for method in ("act", "observe", "train_step"):
            _patch_method(DQNAgent, method, spans_as(f"rl.{method}"))

    if "repro.core.checkpoint" in modules:
        from repro.core import checkpoint

        _patch_function(checkpoint, "save_dqn_checkpoint",
                        spans_as("checkpoint.save_dqn_checkpoint"))

    if "repro.exp.suites" in modules:
        from repro.exp import runner, suites

        for function in ("expand_unit", "train_controller", "run_suite"):
            _patch_function(suites, function, spans_as(f"suites.{function}"))
        _patch_method(suites.SuiteJournal, "append", spans_as("suites.journal_append"))
        _patch_method(runner.SupervisedTrialPool, "run", spans_as("runner.run"))

    if "repro.cli" in modules:
        import repro.cli

        _patch_function(repro.cli, "main", spans_as("cli.main"))
