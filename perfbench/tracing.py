"""Layer spans recorded from outside the program.

:class:`Tracer` replaces each layer's public boundary functions, at every
``repro.*`` module where they are bound, with thin wrappers that append a
span (layer, name, start, end, parent, request tag) to in-memory lists.
Nothing inside ``src/`` changes: uninstalling puts every original object
back. Per-layer ``calls`` and ``self_s`` (a span's duration minus the
time its direct child spans cover) and the derived per-layer counters
are computed from the spans after the run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = (
    "gf", "topology", "trees", "core", "simulator", "telemetry",
    "tenancy", "sweep", "analysis",
)

# layer -> (module, attribute) of the module-level boundary functions
FUNCTIONS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    "gf": (
        ("repro.gf.gf", "get_field"),
        ("repro.gf.poly", "smallest_primitive"),
    ),
    "topology": (
        ("repro.topology.singer", "singer_difference_set"),
        ("repro.topology.singer", "singer_graph"),
        ("repro.topology.polarfly", "polarfly_graph"),
        ("repro.topology.layout", "polarfly_layout"),
    ),
    "trees": (
        ("repro.trees.lowdepth", "low_depth_trees"),
        ("repro.trees.disjoint", "edge_disjoint_hamiltonian_trees"),
        ("repro.trees.disjoint", "max_disjoint_hamiltonian_pairs"),
        ("repro.trees.hamiltonian", "optimal_path_depth"),
    ),
    "core": (
        ("repro.core.plan", "build_plan"),
        ("repro.core.plancache", "get_plan"),
        ("repro.core.bandwidth", "tree_bandwidths"),
        ("repro.core.bandwidth", "optimal_partition"),
        ("repro.core.faults", "degraded_plan"),
        ("repro.core.faults", "repaired_plan"),
    ),
    "simulator": (
        ("repro.simulator.engine", "make_engine"),
        ("repro.simulator.recovery", "run_with_recovery"),
    ),
    "tenancy": (
        ("repro.tenancy.placement", "place_jobs"),
        ("repro.tenancy.fabric", "simulate_tenants"),
    ),
}

# layer -> (module, class, method) of the boundary methods
METHODS: Dict[str, Tuple[Tuple[str, str, str], ...]] = {
    "simulator": (
        ("repro.simulator.cycle", "CycleSimulator", "run"),
        ("repro.simulator.fastcycle", "FastCycleSimulator", "run"),
        ("repro.simulator.leap", "LeapCycleSimulator", "run"),
        ("repro.simulator.batched", "BatchedCycleSimulator", "run"),
        ("repro.simulator.batched", "BatchedCycleSimulator", "run_batch"),
    ),
    "telemetry": (
        ("repro.telemetry.collector", "Collector", "__init__"),
        ("repro.telemetry.collector", "Collector", "to_jsonl"),
    ),
    "sweep": (("repro.sweep.engine", "SweepRunner", "run"),),
}

ENGINE_RUNS = frozenset(
    ("CycleSimulator.run", "FastCycleSimulator.run",
     "LeapCycleSimulator.run", "BatchedCycleSimulator.run")
)


def task_functions() -> Dict[str, Callable[..., Any]]:
    """Registered sweep task name -> the function it resolves to."""
    from repro.sweep.tasks import BUILTIN_TASKS, resolve

    return {name: resolve(name) for name in sorted(BUILTIN_TASKS)}


def render_functions() -> Dict[str, Callable[..., Any]]:
    """``render_*`` functions of the analysis package plus ``full_report``."""
    import pkgutil

    import repro.analysis

    found: Dict[str, Callable[..., Any]] = {}
    for info in pkgutil.iter_modules(repro.analysis.__path__, "repro.analysis."):
        mod = importlib.import_module(info.name)
        for attr, obj in vars(mod).items():
            if (
                callable(obj)
                and getattr(obj, "__module__", None) == info.name
                and (attr.startswith("render_") or attr == "full_report")
            ):
                found[f"{info.name}.{attr}"] = obj
    return found


# ----------------------------------------------------------------- counters


def _engine_run_attrs(args, kwargs, result) -> Tuple[Any, ...]:
    sim = args[0]
    return (
        type(sim).__name__,
        int(result.cycles),
        getattr(sim, "telemetry", None) is not None,
        getattr(sim, "stepped_cycles", None),
    )


def _run_batch_attrs(args, kwargs, result) -> int:
    lane_cycles = 0
    for out in result:
        if out.stats is not None:
            lane_cycles += int(out.stats.cycles)
        elif out.stall_cycle is not None:
            lane_cycles += int(out.stall_cycle)
    return lane_cycles


def _recovery_attrs(args, kwargs, result) -> int:
    return len(result.episodes)


def _tenants_attrs(args, kwargs, result) -> int:
    return sum(int(o.local_cycles) for o in result.outcomes)


def _sweep_attrs(args, kwargs, result) -> int:
    return len(result)


ATTRS: Dict[str, Callable[..., Any]] = {
    "CycleSimulator.run": _engine_run_attrs,
    "FastCycleSimulator.run": _engine_run_attrs,
    "LeapCycleSimulator.run": _engine_run_attrs,
    "BatchedCycleSimulator.run": _engine_run_attrs,
    "BatchedCycleSimulator.run_batch": _run_batch_attrs,
    "run_with_recovery": _recovery_attrs,
    "simulate_tenants": _tenants_attrs,
    "SweepRunner.run": _sweep_attrs,
}


# ------------------------------------------------------------------- tracer


class Tracer:
    """In-memory span recorder with install/uninstall of the wrappers.

    Spans are kept as parallel lists (one entry per call); ``tag`` is the
    request kind the benchmark set before issuing the request.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self.layer_of: Dict[str, str] = {}
        self.task_of: Dict[str, str] = {}
        self.span_name: List[int] = []
        self.span_parent: List[int] = []
        self.span_tag: List[str] = []
        self.span_start: List[int] = []
        self.span_end: List[int] = []
        self.span_attr: List[Any] = []
        self.stack: List[int] = []
        self.tag = ""
        self.active = True
        self._patches: List[Tuple[Any, str, Any]] = []

    # -------------------------------------------------------------- wrapping

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self.layer_of:
            self.layer_of[name] = layer
            self.names.append(name)
        return self.names.index(name)

    def _wrap(self, fn: Callable[..., Any], name: str, layer: str):
        nid = self._name_id(name, layer)
        on_exit = ATTRS.get(name)
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.span_start)
            stack = tracer.stack
            tracer.span_name.append(nid)
            tracer.span_parent.append(stack[-1] if stack else -1)
            tracer.span_tag.append(tracer.tag)
            tracer.span_attr.append(None)
            tracer.span_end.append(0)
            stack.append(idx)
            tracer.span_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.span_end[idx] = clock()
                stack.pop()
            if on_exit is not None:
                tracer.span_attr[idx] = on_exit(args, kwargs, result)
            return result

        # lru_cache'd functions keep their maintenance API
        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(span, attr, getattr(fn, attr))
        return span

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every boundary function wherever a ``repro`` module binds it."""
        targets: Dict[int, Tuple[Callable[..., Any], str, str]] = {}
        for layer, entries in FUNCTIONS.items():
            for module, attr in entries:
                fn = getattr(importlib.import_module(module), attr)
                targets[id(fn)] = (fn, attr, layer)
        for task, fn in task_functions().items():
            targets[id(fn)] = (fn, f"task:{task}", "analysis")
            self.task_of[f"task:{task}"] = task
        for qual, fn in render_functions().items():
            targets.setdefault(id(fn), (fn, qual.rsplit(".", 1)[1], "analysis"))

        wrappers = {
            key: self._wrap(fn, name, layer)
            for key, (fn, name, layer) in targets.items()
        }
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and targets[id(obj)][0] is obj:
                    self._set(mod, attr, wrapper)

        for layer, entries in METHODS.items():
            for module, cls_name, meth in entries:
                cls = getattr(importlib.import_module(module), cls_name)
                name = f"{cls_name}.{meth}" if meth != "__init__" else cls_name
                self._set(cls, meth, self._wrap(vars(cls)[meth], name, layer))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside run unrecorded (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -------------------------------------------------------------- analysis

    def __len__(self) -> int:
        return len(self.span_start)

    def durations_ns(self) -> List[int]:
        return [e - s for s, e in zip(self.span_start, self.span_end)]

    def self_ns(self) -> List[int]:
        """Each span's duration minus its direct children's durations."""
        own = self.durations_ns()
        out = list(own)
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                out[p] -= own[i]
        return out

    def dump(self, path) -> None:
        """Write the spans as JSON lines (one span per line)."""
        with open(path, "w") as f:
            for i in range(len(self)):
                f.write(json.dumps({
                    "id": i,
                    "parent": self.span_parent[i],
                    "layer": self.layer_of[self.names[self.span_name[i]]],
                    "name": self.names[self.span_name[i]],
                    "tag": self.span_tag[i],
                    "start_ns": self.span_start[i],
                    "end_ns": self.span_end[i],
                }) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    traced_wall_s: float,
    untraced_wall_s: float,
    plan_cache_stats: Optional[Dict[str, int]],
) -> Dict[str, float]:
    """Every per-layer metric named in BENCHMARK.json, from one traced run."""
    durs = tracer.durations_ns()
    selfs = tracer.self_ns()
    names = [tracer.names[n] for n in tracer.span_name]
    calls = {layer: 0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    task_s = {task: 0.0 for task in task_functions()}
    render_s = build_s = encode_s = 0.0
    sim_cycles = replans = lane_cycles = tenant_cycles = cells = 0
    fast_ns = fast_cycles = tel_ns = tel_cycles = 0
    leap_stepped = leap_cycles = 0
    batch_ns = tenants_ns = 0

    for i, name in enumerate(names):
        layer = tracer.layer_of[name]
        calls[layer] += 1
        self_s[layer] += selfs[i] / 1e9
        attr = tracer.span_attr[i]
        parent = tracer.span_parent[i]
        if name in tracer.task_of:
            task_s[tracer.task_of[name]] += durs[i] / 1e9
        elif layer == "analysis":
            render_s += selfs[i] / 1e9
        elif name == "make_engine":
            build_s += durs[i] / 1e9
        elif name == "Collector.to_jsonl":
            encode_s += durs[i] / 1e9
        elif name == "run_with_recovery":
            replans += attr or 0
        elif name == "BatchedCycleSimulator.run_batch":
            lane_cycles += attr or 0
            batch_ns += durs[i]
        elif name == "simulate_tenants":
            tenant_cycles += attr or 0
            tenants_ns += durs[i]
        elif name == "SweepRunner.run":
            cells += attr or 0
        elif name in ENGINE_RUNS and attr is not None:
            # engines delegating to an inner engine: count the outer run only
            if parent >= 0 and names[parent] in ENGINE_RUNS:
                continue
            engine, cycles, telemetry, stepped = attr
            sim_cycles += cycles
            if engine == "FastCycleSimulator":
                if telemetry:
                    tel_ns += durs[i]
                    tel_cycles += cycles
                else:
                    fast_ns += durs[i]
                    fast_cycles += cycles
            elif engine == "LeapCycleSimulator" and stepped is not None:
                leap_stepped += stepped
                leap_cycles += cycles

    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    hits = misses = 0
    if plan_cache_stats:
        hits, misses = plan_cache_stats["hits"], plan_cache_stats["misses"]
    us_fast = _ratio(fast_ns / 1e3, fast_cycles)
    out.update({
        "core.plan_cache_hit_ratio": _ratio(hits, hits + misses),
        "simulator.build_s": build_s,
        "simulator.sim_cycles": sim_cycles,
        "simulator.us_per_sim_cycle": us_fast,
        "simulator.stepped_fraction": _ratio(leap_stepped, leap_cycles),
        "simulator.replan_episodes": replans,
        "simulator.lane_cycles": lane_cycles,
        "simulator.us_per_lane_cycle": _ratio(batch_ns / 1e3, lane_cycles),
        "telemetry.encode_s": encode_s,
        "telemetry.overhead_ratio": _ratio(_ratio(tel_ns / 1e3, tel_cycles), us_fast),
        "tenancy.tenant_cycles": tenant_cycles,
        "tenancy.us_per_tenant_cycle": _ratio(tenants_ns / 1e3, tenant_cycles),
        "sweep.cells": cells,
        "analysis.render_s": render_s,
        "trace.spans": len(tracer),
        "trace.self_share": _ratio(sum(self_s.values()), traced_wall_s),
        "trace.overhead_ratio": _ratio(traced_wall_s, untraced_wall_s),
    })
    for task, seconds in task_s.items():
        out[f"analysis.{task}_s"] = seconds
    return out
