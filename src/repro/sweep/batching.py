"""Routing compatible sweep cells through one batched lane-runner call.

A sweep grid over simulation knobs (message split, buffers, capacity,
faults) at a fixed topology+plan is exactly the workload the batched
lane runner (:mod:`repro.simulator.batched`) collapses into a single
tensor run.  :func:`plan_groups` partitions a miss list into groups of
``sim_point`` cells that share a plan (see
:func:`~repro.analysis.simgrid.sim_point_group_key`) and serial
leftovers; :class:`~repro.sweep.engine.SweepRunner` evaluates each group
inline with :func:`~repro.analysis.simgrid.sim_point_batch` — the batch
*is* the parallelism, so the process pool only sees the leftovers.

Because a group's results are bit-identical to ``sim_point`` per cell
(the lane runner's differential guarantee, re-checked by the sweep
route-parity tests), cache entries written by either route are
byte-identical — a cache warmed by a batched run is indistinguishable
from one warmed serially, and vice versa.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Sequence, Tuple

from repro.sweep.spec import Cell

__all__ = ["plan_groups"]


def plan_groups(
    missing: Sequence[Tuple[int, Cell]],
) -> Tuple[List[List[Tuple[int, Cell]]], List[Tuple[int, Cell]]]:
    """Split cache misses into ``sim_point`` groups and serial leftovers.

    Input order is preserved within every group and within the leftover
    list, and results are merged back by cell index either way, so
    routing never reorders a sweep's output.  A group of one gains
    nothing and stays serial, and so does every cell when ``sim_point``
    was re-registered to another function.
    """
    from repro.analysis.simgrid import sim_point, sim_point_group_key
    from repro.sweep.tasks import resolve

    batchable = resolve("sim_point") is sim_point
    groups: Dict[Hashable, List[Tuple[int, Cell]]] = {}
    serial: List[Tuple[int, Cell]] = []
    for i, c in missing:
        key = None
        if batchable and c.task == "sim_point":
            key = sim_point_group_key(c.kwargs)
        if key is None:
            serial.append((i, c))
        else:
            groups.setdefault(key, []).append((i, c))
    batched: List[List[Tuple[int, Cell]]] = []
    for members in groups.values():
        if len(members) < 2:
            serial.extend(members)
        else:
            batched.append(members)
    serial.sort(key=lambda pair: pair[0])
    return batched, serial
