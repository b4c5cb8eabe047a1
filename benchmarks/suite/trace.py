"""The traced run: timing wrappers around calls into each layer.

Wrappers are installed by attribute replacement, from outside: module
functions on the name the *importing* module binds (``repro.engine.parse``,
not ``repro.sql.parse``), methods on their class.  Every wrapped call
records a span ``{name, start, end, parent, op}`` in memory; the child
writes them out as JSONL and as a Chrome trace when the run ends.  A
span's self time is its duration minus the part its children cover, and
counts (parse calls, IR instructions, cache and branch events) are taken
at the same boundaries.

A target that does not exist is a hard error, never a silent zero: a
later rename cannot blank a layer.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter
from time import perf_counter

from benchmarks.suite.clock import SETUP, TIMED

ROOT = "suite.op"
_MISSING = object()

#: span names whose set-up self time is setup.lowering_s
LOWERING = (
    "sql.parse", "sql.bind", "plan.physical", "pipeline.decompose",
    "codegen.query_ir", "codegen.runtime_ir",
    "backend.query", "backend.runtime", "backend.syslib",
)
#: machine counters differenced around every Machine.call
_VM_COUNTERS = (
    ("accesses", lambda m: m.caches.accesses),
    ("l1_misses", lambda m: m.caches.l1_misses),
    ("l2_misses", lambda m: m.caches.l2_misses),
    ("branches", lambda m: m.predictor.branches),
    ("mispredicts", lambda m: m.predictor.mispredicts),
    ("instructions", lambda m: m.state.instructions),
    ("cycles", lambda m: m.state.cycles),
    ("sampling_cycles", lambda m: m.state.sampling_cycles),
    ("samples", lambda m: m.state.samples_taken),
)


class TraceError(RuntimeError):
    """A wrapper's target is missing or not callable."""


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index, region]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._region = None
        #: (phase, key) -> count, taken at span boundaries
        self.counts: Counter = Counter()
        self.max_tier = 0
        self._installed: list[tuple] = []

    # -- span recording ---------------------------------------------------

    def open_root(self, region) -> None:
        self._region = region
        self._push(ROOT)

    def close_root(self, region) -> None:
        self._pop()
        self._region = None

    def _push(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent, self._region])

    def _pop(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def count(self, key: str, amount=1) -> None:
        self.counts[self._region.phase, key] += amount

    # -- installation -----------------------------------------------------

    def wrap(self, owner, attr: str, name, enter=None, leave=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is the span name or a function of the call's positional
        arguments returning it; ``enter(args)`` runs before the call and
        its value is handed to ``leave(token, args, result)`` after it."""
        raw = inspect.getattr_static(owner, attr, _MISSING)
        if raw is _MISSING:
            raise TraceError(f"trace target missing: {owner.__name__}.{attr}")
        binder = type(raw) if isinstance(raw, (staticmethod, classmethod)) \
            else None
        target = raw.__func__ if binder else raw
        if not callable(target):
            raise TraceError(f"trace target not callable: "
                             f"{owner.__name__}.{attr}")
        tracer = self

        @functools.wraps(target)
        def traced(*args, **kwargs):
            if tracer._region is None:
                return target(*args, **kwargs)
            span_name = name if isinstance(name, str) else name(args)
            token = enter(args) if enter is not None else None
            tracer._push(span_name)
            try:
                result = target(*args, **kwargs)
            finally:
                tracer._pop()
            if leave is not None:
                leave(token, args, result)
            return result

        setattr(owner, attr, binder(traced) if binder else traced)
        self._installed.append((owner, attr, raw))

    def wrap_methods(self, cls, layer: str, named: dict) -> None:
        """Wrap the public methods of ``cls``: those in ``named`` under the
        given span name (missing ones are an error), the rest as
        ``<layer>.other``."""
        for attr, span_name in named.items():
            self.wrap(cls, attr, span_name)
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or attr in named:
                continue
            if inspect.isfunction(value):
                self.wrap(cls, attr, f"{layer}.other")

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._installed):
            setattr(owner, attr, raw)
        self._installed.clear()

    def install(self) -> None:
        """Wrap every layer boundary the suite reports on."""
        import repro.engine as engine
        import repro.fleet
        import repro.profiling.export as export
        import repro.serve
        import repro.views
        from repro.vm import CodeRegion

        count = self.count
        self.wrap(engine, "generate_tpch", "data.generate")
        self.wrap(engine, "generate_example", "data.generate")
        self.wrap(engine.StorageEngine, "build", "storage.build")
        self.wrap(engine, "parse", "sql.parse",
                  leave=lambda _, a, r: count("sql.calls"))
        self.wrap(engine.Binder, "bind", "sql.bind")
        self.wrap(engine, "plan_physical", "plan.physical",
                  leave=lambda _, a, r: count(
                      "plan.operators", sum(1 for _ in r.walk())))
        self.wrap(engine, "decompose", "pipeline.decompose",
                  leave=lambda _, a, r: count(
                      "pipeline.tasks", sum(len(p.tasks) for p in r)))
        self.wrap(engine, "generate_query_ir", "codegen.query_ir",
                  leave=lambda _, a, r: count(
                      "codegen.ir_instructions",
                      sum(f.instruction_count() for f in r.module.functions)))
        self.wrap(engine, "build_runtime_module", "codegen.runtime_ir")
        self.wrap(engine, "build_syslib_module", "codegen.runtime_ir")
        backend_span = {
            CodeRegion.QUERY: "backend.query",
            CodeRegion.RUNTIME: "backend.runtime",
            CodeRegion.SYSLIB: "backend.syslib",
        }
        self.wrap(engine, "compile_module", lambda a: backend_span[a[2]],
                  leave=lambda _, a, r: count(
                      "backend.code_words",
                      sum(f.info.end - f.info.start for f in r.values())))
        self.wrap(engine.Machine, "__init__", "vm.machine_init")
        self.wrap(engine.Machine, "call", "vm.run",
                  enter=self._vm_enter, leave=self._vm_leave)
        self.wrap(engine.SampleProcessor, "attribute", "profiling.attribute",
                  leave=lambda _, a, r: count("profiling.samples"))
        self.wrap(engine.Database, "execute", "engine.execute")
        self.wrap(engine.Database, "profile", "engine.execute")
        reports = (
            "annotated_plan", "operator_costs", "task_costs",
            "annotated_pipelines", "annotated_ir", "hot_instructions",
            "render_timeline", "memory_profile", "attribution_summary",
        )
        self.wrap_methods(engine.Profile, "profiling",
                          dict.fromkeys(reports, "profiling.reports"))
        for function in ("folded_stacks", "perf_script", "to_json"):
            self.wrap(export, function, "profiling.export")
        self.wrap_methods(repro.serve.QueryService, "serve", {
            "warm": "serve.warm", "session": "serve.submit",
            "submit": "serve.submit", "drain": "serve.drain",
            "profile_snapshot": "serve.snapshot",
        })
        self.wrap_methods(repro.fleet.Fleet, "fleet", {
            "submit": "fleet.submit", "drain": "fleet.drain",
            "profile_snapshot": "fleet.snapshot_merge",
        })
        self.wrap_methods(repro.views.ViewService, "views", {
            "register": "views.register", "subscribe": "views.register",
            "apply": "views.apply",
        })
        self.wrap(repro.views.Subscription, "pull", "views.pull")

    def _vm_enter(self, args):
        machine = args[0]
        return [read(machine) for _, read in _VM_COUNTERS]

    def _vm_leave(self, before, args, result) -> None:
        machine = args[0]
        phase = self._region.phase
        for (key, read), old in zip(_VM_COUNTERS, before):
            self.counts[phase, f"vm.{key}"] += read(machine) - old
        self.max_tier = max(self.max_tier, machine.tier)

    # -- analysis -----------------------------------------------------------

    def self_seconds(self) -> dict:
        """(phase, span name) -> calibrated self time, summed."""
        child_cover = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_cover[parent] += end - start
        totals: dict = {}
        for (name, start, end, _, region), covered in zip(
            self.spans, child_cover
        ):
            key = (region.phase, name)
            totals[key] = totals.get(key, 0.0) + (
                (end - start - covered) * region.speed
            )
        return totals

    def layer_metrics(self) -> dict:
        """The per-layer metrics a trace yields.  Times and counts cover
        the whole timed phase: the traced child runs the fixed region and
        nothing more, so they add up to its ``wall_s``."""
        self_s = self.self_seconds()
        counts = self.counts

        def timed(name):
            return self_s.get((TIMED, name), 0.0)

        def setup(name):
            return self_s.get((SETUP, name), 0.0)

        def share(part, whole):
            return counts[TIMED, part] / max(1, counts[TIMED, whole])

        out = {
            "data.generate_s": setup("data.generate"),
            "storage.build_s": setup("storage.build"),
            "setup.lowering_s": sum(setup(name) for name in LOWERING),
            "setup.vm_init_s": setup("vm.machine_init"),
            "serve.warm_s": setup("serve.warm"),
            "views.register_s": setup("views.register"),
            "engine.decode_self_s": timed("engine.execute"),
            "vm.machine_init_s": timed("vm.machine_init"),
            "vm.run_s": timed("vm.run"),
            "vm.tier": self.max_tier,
            "vm.l1_miss_share": share("vm.l1_misses", "vm.accesses"),
            "vm.l2_miss_share": share("vm.l2_misses", "vm.accesses"),
            "vm.branch_miss_share": share("vm.mispredicts", "vm.branches"),
            "vm.pmu.samples": counts[TIMED, "vm.samples"],
            "vm.pmu.sampling_cycles_share": share(
                "vm.sampling_cycles", "vm.cycles"
            ),
            "profiling.attribute_s": timed("profiling.attribute"),
            "profiling.reports_s": timed("profiling.reports"),
            "profiling.export_s": timed("profiling.export"),
        }
        for name in LOWERING + (
            "serve.submit", "serve.drain", "serve.snapshot", "fleet.submit",
            "fleet.drain", "fleet.snapshot_merge", "views.apply", "views.pull",
        ):
            out[f"{name}_s"] = timed(name)
        for key in ("sql.calls", "plan.operators", "pipeline.tasks",
                    "codegen.ir_instructions", "backend.code_words"):
            out[key] = counts[TIMED, key]
        run_s = timed("vm.run")
        out["vm.mips"] = (
            counts[TIMED, "vm.instructions"] / run_s / 1e6 if run_s else 0.0
        )
        attribute_s = timed("profiling.attribute")
        out["profiling.samples_per_s"] = (
            counts[TIMED, "profiling.samples"] / attribute_s
            if attribute_s else 0.0
        )
        root_s = sum(
            (end - start) * region.speed
            for name, start, end, _, region in self.spans
            if name == ROOT and region.phase == TIMED
        )
        root_self_s = timed(ROOT)
        out["trace.self_time_share"] = (
            (root_s - root_self_s) / root_s if root_s else 0.0
        )
        return out

    # -- output ---------------------------------------------------------------

    def write(self, stem) -> None:
        """``<stem>.spans.jsonl`` and ``<stem>.chrome.json``."""
        if not self.spans:
            return
        origin = self.spans[0][1]
        op_of = {}
        events = []
        with open(f"{stem}.spans.jsonl", "w") as lines:
            for index, (name, start, end, parent, region) in enumerate(
                self.spans
            ):
                op = op_of.setdefault(id(region), len(op_of))
                lines.write(json.dumps({
                    "id": index, "name": name, "start": start - origin,
                    "end": end - origin, "parent": parent, "op": op,
                    "label": region.label, "phase": region.phase,
                    "pass": region.index, "speed": region.speed,
                }) + "\n")
                events.append({
                    "name": name if name != ROOT else region.label[:60],
                    "cat": region.phase, "ph": "X", "pid": 1, "tid": 1,
                    "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                    "args": {"op": op, "pass": region.index},
                })
        with open(f"{stem}.chrome.json", "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, out)
