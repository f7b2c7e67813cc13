"""The benchmark's workloads: seeded inputs, timed blocks, and checks.

Each workload is a closed loop with one client: a request is issued only
after the previous one returned. ``SETUP[name](seed)`` does everything a
user waits for before the first request (imports, warmed plans) and
builds the seeded request blocks; ``run_block`` issues one block and
returns an :class:`Outcome` per request; ``count_failures`` turns the
outcomes into failed/attempted operations.

- ``report``: one request is a cold, serial regeneration of every
  ``results/`` artifact, diffed against the committed files.
- ``collective``: one request is one allreduce, made the way the CLI
  subcommands make it (``simulate`` on leap/fast, ``faults``,
  ``telemetry``, ``tenants``).
- ``ensemble``: one request is one batched fault Monte Carlo ensemble.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import random
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

DEFAULT_SEED = 1  # the seed whose request digests are recorded

HERE = Path(__file__).resolve().parent
DIGESTS_FILE = HERE / "expected_digests.json"

Q_VALUES = (7, 11, 13)
SCHEMES = ("low-depth", "edge-disjoint")
BUFFERS = (None, 2)
FLITS = (500, 8000)  # total flits per collective request, log-uniform
# Fabric requests cost ~1 ms per tenant-cycle, 10-20x a single-job cycle:
# a tenants request draws from 1/12.5 of the range, so that fabric requests
# are a fifth of the requests (the tail, p90) but under half the wall.
TENANT_FLITS = (40, 640)
# one round of the collective loop; a block of 6 rounds gives every
# request kind each (q, scheme, buffer) cell once
ROUND = ("leap", "leap", "fast", "fast", "faults", "faults",
         "telemetry", "telemetry", "tenants", "tenants")
ROUNDS = 6
COLLECTIVE_BLOCKS = 2

ENSEMBLE_Q = (7, 11)
ENSEMBLE_M = (8, 16)
ENSEMBLE_FAULTS = (1, 2)
ENSEMBLE_K = 256


@dataclasses.dataclass
class Outcome:
    """What one request returned, as the failure count needs it."""

    key: str  # canonical request description (digest table key)
    latency_s: float
    digest: Optional[str] = None
    error: Optional[str] = None  # why the request failed its checks
    failures: int = 0  # failed operations (report: drifted artifacts)
    operations: int = 1  # operations the request stands for


@dataclasses.dataclass
class Workload:
    """A workload's request list, cut into balanced blocks.

    A run issues whole blocks, cycling through them; ``before_block``
    puts the program back into the state every block starts from
    (untimed). ``call`` is the timed request; ``verify`` inspects what it
    returned (untimed, untraced) and gives ``(record, error, failures)``.
    """

    name: str
    blocks: List[List[Dict[str, Any]]]
    call: Callable[[Dict[str, Any]], Any]
    verify: Callable[[Dict[str, Any], Any], Tuple[Any, Optional[str], Optional[int]]]
    operations: int = 1  # operations one request stands for
    min_blocks: int = 1
    before_block: Callable[[], None] = lambda: None

    @property
    def requests(self) -> List[Dict[str, Any]]:
        return [req for block in self.blocks for req in block]


def digest(obj: Any) -> str:
    """sha256 of a canonical JSON rendering (floats by repr)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def request_key(req: Dict[str, Any]) -> str:
    return json.dumps(req, sort_keys=True, separators=(",", ":"))


def _strata(rng: random.Random, n: int, span: Tuple[int, int], layout: int
            ) -> List[Tuple[Tuple[int, str, Optional[int]], int]]:
    """``n`` ((q, scheme, buffer), flits) pairs, stratified twice over.

    The log of ``span`` is cut into ``n`` equal bins and one flit count is
    drawn in each; consecutive runs of ``len(grid)`` bins go one to every
    grid cell. Which bin meets which cell is fixed by ``layout``, not by
    the seed: seeds move draws within their bins (and the fault links,
    tenant mixes and order), not the cost structure of the list.
    """
    grid = [(q, s, b) for q in Q_VALUES for s in SCHEMES for b in BUFFERS]
    lo, hi = math.log(span[0]), math.log(span[1])
    out = []
    for start in range(0, n, len(grid)):
        bins = range(start, min(n, start + len(grid)))
        cells = random.Random(layout * 1000 + start).sample(grid, len(bins))
        for cell, i in zip(cells, bins):
            m = int(round(math.exp(lo + (i + rng.random()) / n * (hi - lo))))
            out.append((cell, m))
    rng.shuffle(out)
    return out


# ------------------------------------------------------------------ report


def _program_caches() -> List[Any]:
    """Every lru_cache'd function the program defines (its memo tables)."""
    found = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not name.startswith("repro"):
            continue
        for obj in vars(mod).values():
            if (
                hasattr(obj, "cache_clear")
                and hasattr(obj, "cache_info")
                and getattr(obj, "__module__", None) == name
            ):
                found.append(obj)
    return found


def setup_report(seed: int, small: bool = False) -> Workload:
    """Imports only: every request starts from empty plan/topology caches.

    ``seed`` does not change this workload, and neither does ``small``:
    the artifacts are only comparable to ``results/`` at full size.
    """
    import repro.analysis  # noqa: F401  (imported by every report user)
    from repro import sweep
    from repro.core import plancache

    results_dir = Path.cwd() / "results"

    def cold() -> None:
        for fn in _program_caches():  # modules imported lazily included
            fn.cache_clear()
        plancache.reset_global_plan_cache()

    def call(req: Dict[str, Any]) -> Tuple[Dict[str, str], List[str]]:
        artifacts = sweep.generate_artifacts(sweep.SweepRunner(workers=0, cache=None))
        return artifacts, sweep.check_artifacts(results_dir, artifacts)

    def verify(req, result):
        artifacts, drifted = result
        error = f"drifted: {', '.join(drifted)}" if drifted else None
        return artifacts, error, len(drifted)

    return Workload(
        "report", [[{"kind": "regenerate"}]], call, verify,
        operations=len(sweep.ARTIFACT_NAMES), before_block=cold,
    )


# -------------------------------------------------------------- collective


def _collective_block(rng: random.Random, rounds: int, plans, layout: int
                      ) -> List[Dict[str, Any]]:
    """``rounds`` rounds of :data:`ROUND`; within each request kind the
    (q, scheme, buffer) cells and the flit strata are covered evenly."""
    from repro.analysis.recovery import used_links

    per_kind: Dict[str, List[Dict[str, Any]]] = {}
    for j, kind in enumerate(dict.fromkeys(ROUND)):
        n = ROUND.count(kind) * rounds
        span = TENANT_FLITS if kind == "tenants" else FLITS
        transient = [i < n // 3 for i in range(n)]  # a third of the faults
        rng.shuffle(transient)
        reqs = []
        for (q, scheme, buf), m in _strata(rng, n, span, layout * 10 + j):
            req: Dict[str, Any] = {
                "kind": kind, "q": q, "scheme": scheme, "buffer": buf, "m": m,
            }
            plan = plans[(q, scheme)]
            if kind == "faults":
                down = rng.randint(1, 40)
                req["link"] = list(rng.choice(used_links(plan)))
                req["down"] = down
                req["up"] = down + rng.randint(2, 20) if transient.pop() else None
            elif kind == "tenants":
                m0 = int(round(m * rng.uniform(0.3, 0.7)))
                t = plan.num_trees
                req["jobs"] = [
                    [0, 0, m0, t],
                    [1, rng.randint(0, 50), m - m0, t],
                ]
            reqs.append(req)
        per_kind[kind] = reqs
    out = []
    for _ in range(rounds):
        block = [per_kind[kind].pop() for kind in ROUND]
        rng.shuffle(block)
        out.extend(block)
    return out


def setup_collective(seed: int, small: bool = False) -> Workload:
    """Imports, warmed plans for every (q, scheme), then the request list."""
    from repro import core, simulator, telemetry, tenancy
    from repro.core import plancache

    def warm():
        return {(q, s): core.get_plan(q, s) for q in Q_VALUES for s in SCHEMES}

    def fresh_plans() -> None:
        """Every block starts from warmed plans and no memoized re-plans."""
        plancache.reset_global_plan_cache()
        warm()

    plans = warm()
    rng = random.Random(seed)
    if small:
        blocks = [_collective_block(rng, 1, plans, 0)]
    else:
        blocks = [_collective_block(rng, ROUNDS, plans, b)
                  for b in range(COLLECTIVE_BLOCKS)]

    def call(req: Dict[str, Any]) -> Any:
        kind, m, buf = req["kind"], req["m"], req["buffer"]
        plan = core.get_plan(req["q"], req["scheme"])
        if kind in ("leap", "fast"):
            return simulator.simulate_allreduce(
                plan.topology, plan.trees, plan.partition(m),
                buffer_size=buf, engine=kind,
            )
        if kind == "faults":
            faults = simulator.FaultSchedule.single(
                tuple(req["link"]), req["down"], up=req["up"]
            )
            return simulator.run_with_recovery(plan, m, faults, buffer_size=buf)
        if kind == "telemetry":
            col = telemetry.Collector(sample_every=32)
            stats = simulator.simulate_allreduce(
                plan.topology, plan.trees, plan.partition(m),
                buffer_size=buf, engine="fast", telemetry=col,
            )
            return stats, col.to_jsonl()
        jobs = [tenancy.TenantJob(*j) for j in req["jobs"]]
        placed = tenancy.place_jobs(req["q"], jobs, req["scheme"], mode="shared")
        return jobs, tenancy.simulate_tenants(placed, 1, buf)

    def verify(req: Dict[str, Any], result: Any):
        kind, m = req["kind"], req["m"]
        plan = plans[(req["q"], req["scheme"])]
        bound = plan.aggregate_bandwidth
        if kind in ("leap", "fast"):
            return dataclasses.asdict(result), _check_stats(result, m, bound), None
        if kind == "faults":
            record = {
                "stats": dataclasses.asdict(result.stats),
                "episodes": [dataclasses.asdict(e) for e in result.episodes],
                "total_cycles": result.total_cycles,
                "final": [result.final_num_trees, result.final_scheme],
            }
            error = None
            if result.flits_total != m:
                error = f"recovery carried {result.flits_total} of {m} flits"
            elif m / result.total_cycles > bound:
                error = "recovered run beat the Algorithm 1 bound"
            return record, error, None
        if kind == "telemetry":
            stats, jsonl = result
            record = {
                "stats": dataclasses.asdict(stats),
                "jsonl": hashlib.sha256(jsonl.encode()).hexdigest(),
            }
            error = _check_stats(stats, m, bound)
            return record, error or (None if jsonl else "empty stream"), None
        jobs, fstats = result
        record = {
            "cycles": fstats.cycles,
            "outcomes": [
                [o.tenant, o.status, o.local_cycles, o.global_cycle,
                 o.blocked_cycles, o.flits_moved,
                 dataclasses.asdict(o.stats) if o.stats else None]
                for o in fstats.outcomes
            ],
        }
        return record, _check_tenants(fstats, jobs, bound), None

    return Workload("collective", blocks, call, verify,
                    min_blocks=len(blocks), before_block=fresh_plans)


def _check_stats(stats, m: int, bound) -> Optional[str]:
    """Every flit delivered, and no faster than Algorithm 1 allows."""
    if sum(stats.flits_per_tree) != m:
        return f"partition carried {sum(stats.flits_per_tree)} of {m} flits"
    if len(stats.tree_completion) != len(stats.flits_per_tree) or any(
        f > 0 and not 0 < c <= stats.cycles
        for f, c in zip(stats.flits_per_tree, stats.tree_completion)
    ):
        return "a tree with flits never completed"
    if stats.aggregate_bandwidth > bound:
        return (f"measured bandwidth {stats.aggregate_bandwidth:.4f} exceeds "
                f"the Algorithm 1 bound {float(bound):.4f}")
    return None


def _check_tenants(fstats, jobs, bound) -> Optional[str]:
    """Every tenant completed with all its flits, each within the Algorithm 1
    bound of the plan whose trees it was placed on (all of them)."""
    by_id = {j.tenant: j for j in jobs}
    for o in fstats.outcomes:
        if o.status != "completed" or o.stats is None:
            return f"tenant {o.tenant} {o.status}"
        error = _check_stats(o.stats, by_id[o.tenant].m, bound)
        if error:
            return f"tenant {o.tenant}: {error}"
    return None


# ---------------------------------------------------------------- ensemble


def setup_ensemble(seed: int, small: bool = False) -> Workload:
    """Imports, warmed plans for every (q, scheme), then the ensembles: one
    block per fault count, each holding every (q, scheme, m) once in
    seeded order, with seeded fault samples."""
    from repro import core, simulator
    from repro.analysis import montecarlo

    for q in ENSEMBLE_Q:
        for s in SCHEMES:
            core.get_plan(q, s)
    rng = random.Random(seed)
    blocks = []
    for faults in ENSEMBLE_FAULTS:
        combos = [(q, s, m) for q in ENSEMBLE_Q for s in SCHEMES for m in ENSEMBLE_M]
        rng.shuffle(combos)
        blocks.append([
            {"q": q, "scheme": s, "m": m, "faults": faults, "k": ENSEMBLE_K,
             "seed": rng.randrange(2 ** 31)}
            for q, s, m in combos
        ])
    if small:
        blocks = [[dict(req, k=16) for req in blocks[0]
                   if req["q"] == ENSEMBLE_Q[0]][:2]]
    clean: Dict[Tuple[int, str, int], int] = {}

    def clean_cycles(q: int, scheme: str, m: int) -> int:
        """The fault-free fast-engine run each ensemble must agree with."""
        if (q, scheme, m) not in clean:
            plan = core.get_plan(q, scheme)
            clean[(q, scheme, m)] = simulator.simulate_allreduce(
                plan.topology, plan.trees, (m,) * plan.num_trees, engine="fast"
            ).cycles
        return clean[(q, scheme, m)]

    def call(req: Dict[str, Any]) -> Any:
        return montecarlo.fault_monte_carlo(
            req["q"], req["scheme"], m=req["m"], k=req["k"],
            seed=req["seed"], num_faults=req["faults"],
        )

    def verify(req: Dict[str, Any], res: Any):
        record = {
            "clean_cycles": res.clean_cycles,
            "stall_rate": res.stall_rate,
            "quantiles": res.slowdown_quantiles,
            "mean_slowdown": res.mean_slowdown,
            "lanes": res.lanes,
        }
        error = None
        if len(res.lanes) != req["k"]:
            error = f"{len(res.lanes)} of {req['k']} lanes reported"
        else:
            oracle = clean_cycles(req["q"], req["scheme"], req["m"])
            if res.clean_cycles != oracle:
                error = f"clean_cycles {res.clean_cycles} != fast engine {oracle}"
        return record, error, None

    return Workload("ensemble", blocks, call, verify)


SETUP = {
    "report": setup_report,
    "collective": setup_collective,
    "ensemble": setup_ensemble,
}
WORKLOADS = tuple(SETUP)


# ------------------------------------------------------------------ blocks


def run_block(
    workload: Workload,
    index: int,
    tag: Callable[[Optional[str]], None] = lambda kind: None,
    untraced: Callable[[], Any] = contextlib.nullcontext,
) -> List[Outcome]:
    """Issue block ``index`` (cyclically) once, in order: a closed loop
    with one client.

    ``tag`` is told each request's kind before it is issued and ``None``
    once it returned. Only ``call`` is timed; ``before_block`` and
    ``verify`` run inside ``untraced()``, so a traced run records no spans
    of the benchmark's own bookkeeping.
    """
    with untraced():
        workload.before_block()
    out = []
    for req in workload.blocks[index % len(workload.blocks)]:
        key = request_key(req)
        tag(req.get("kind", workload.name))
        t0 = time.perf_counter()
        try:
            result = workload.call(req)
        except Exception as e:  # a raising request is a failed operation
            tag(None)
            out.append(Outcome(key, time.perf_counter() - t0,
                               error=f"raised {type(e).__name__}: {e}",
                               failures=workload.operations,
                               operations=workload.operations))
            continue
        latency = time.perf_counter() - t0
        tag(None)
        with untraced():
            record, error, failures = workload.verify(req, result)
        if failures is None:
            failures = 1 if error else 0
        out.append(Outcome(key, latency, digest(record), error, failures,
                           workload.operations))
    return out


def load_digests(workload: str) -> Dict[str, str]:
    if not DIGESTS_FILE.exists():
        return {}
    return json.loads(DIGESTS_FILE.read_text()).get(workload, {})


def count_failures(outcomes: List[Outcome], expected: Dict[str, str]
                   ) -> Tuple[int, int, List[str]]:
    """(attempted, failed, messages) over a run's outcomes.

    A request fails when it raised or failed its own checks, or when its
    digest differs from the one recorded for the same request.
    """
    attempted = failed = 0
    messages = []
    for o in outcomes:
        attempted += o.operations
        if o.error is not None:
            failed += o.failures
            messages.append(f"{o.key}: {o.error}")
        elif o.key in expected and expected[o.key] != o.digest:
            failed += 1
            messages.append(f"{o.key}: digest {o.digest[:12]} differs from "
                            f"the recorded {expected[o.key][:12]}")
    return attempted, failed, messages
