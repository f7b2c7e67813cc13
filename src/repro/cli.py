"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info Q``          topology summary for PolarFly of parameter Q
``plan Q``          build an embedding plan and print its metrics
``simulate Q``      run the cycle-level simulator against the model
``faults Q``        kill a link mid-Allreduce, recover, report latencies
``adapt Q``         skewed load vs the congestion-aware re-planner
``telemetry Q``     instrumented run: hot links, queue peaks, JSONL trace
``report``          regenerate every paper table/figure as text
``sweep``           parallel, cache-backed artifact regeneration
``tenants Q``       K concurrent tenants on one fabric: fairness table
``export Q``        emit DOT/GraphML for the topology or an embedding
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="repro",
        description="In-network Allreduce with multiple spanning trees on PolarFly "
        "(SPAA '23 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("info", help="topology summary")
    s.add_argument("q", type=int, help="prime-power PolarFly parameter")

    s = sub.add_parser(
        "plan",
        help="build an Allreduce embedding plan",
        description="Build (or fetch from the process-wide plan cache) an "
        "embedding plan, print its metrics, the per-stage construction "
        "timings (graph build / tree construction / bandwidth fill / "
        "partition) and the cache hit/miss counters.",
    )
    s.add_argument("q", type=int)
    s.add_argument("--scheme", default="low-depth",
                   choices=("low-depth", "edge-disjoint", "single"))
    s.add_argument("--bandwidth", type=int, default=1, help="link bandwidth B")
    s.add_argument("-m", type=int, default=0, help="vector size to partition")

    s = sub.add_parser("simulate", help="cycle-level flit simulation")
    s.add_argument("q", type=int)
    s.add_argument("--scheme", default="low-depth",
                   choices=("low-depth", "edge-disjoint", "single"))
    s.add_argument("-m", type=int, default=600, help="total flits")
    s.add_argument("--engine", default="leap",
                   choices=("reference", "fast", "leap", "batched"),
                   help="cycle engine (leap: O(events) wall clock, "
                        "cycle-exact; default)")
    s.add_argument("--buffer", type=int, default=None, metavar="SLOTS",
                   help="per-flow credit buffer slots (default: unbounded)")
    s.add_argument("--capacity", type=int, default=1,
                   help="link capacity in flits/cycle")

    s = sub.add_parser(
        "faults",
        help="dynamic fault injection with mid-flight recovery",
        description="Kill links mid-Allreduce per a fault schedule, let the "
        "engine stall, re-plan with the degraded/repaired machinery and "
        "finish on the surviving trees; prints per-episode detection and "
        "recovery latencies and the measured bandwidth before/after.",
    )
    s.add_argument("q", type=int)
    s.add_argument("--scheme", default="low-depth",
                   choices=("low-depth", "edge-disjoint", "single"))
    s.add_argument("-m", type=int, default=600, help="total flits")
    s.add_argument("--engine", default="leap",
                   choices=("reference", "fast", "leap"))
    s.add_argument("--policy", default="repaired",
                   choices=("repaired", "degraded", "auto"),
                   help="static recovery applied on stall")
    s.add_argument("--link", type=int, nargs=2, default=None,
                   metavar=("U", "V"),
                   help="the link to kill (default: first tree-carrying link)")
    s.add_argument("--down", type=int, default=20,
                   help="cycle the link dies (default 20)")
    s.add_argument("--up", type=int, default=None,
                   help="revival cycle (default: the failure is permanent)")
    s.add_argument("--buffer", type=int, default=None, metavar="SLOTS",
                   help="per-flow credit buffer slots (default: unbounded)")
    s.add_argument("--capacity", type=int, default=1,
                   help="link capacity in flits/cycle")

    s = sub.add_parser(
        "adapt",
        help="congestion-aware re-planning on a skewed workload",
        description="Submit a skewed workload (a fraction of the vector "
        "pinned to tree 0), attach the congestion controller to the "
        "telemetry stream, and race the static plan against adaptive "
        "re-planning: when a link stays hot for the dwell window the "
        "controller demotes it, migrates crossing trees off it and "
        "re-partitions the leftover sub-vectors (Eq. 2); prints both "
        "completion times, the balanced-partition oracle and each "
        "episode's decision.",
    )
    s.add_argument("q", type=int)
    s.add_argument("--scheme", default="low-depth",
                   choices=("low-depth", "edge-disjoint", "single"))
    s.add_argument("-m", type=int, default=600, help="total flits")
    s.add_argument("--skew", type=float, default=1.0,
                   help="fraction of the vector pinned to tree 0 (default 1.0)")
    s.add_argument("--engine", default="fast",
                   choices=("fast", "reference"),
                   help="per-cycle host engine (the controller cannot ride "
                        "the leap engine's jumps)")
    s.add_argument("--high", type=float, default=0.85, dest="util_high",
                   help="high-water link utilization (default 0.85)")
    s.add_argument("--low", type=float, default=0.30, dest="util_low",
                   help="low-water release utilization (default 0.30)")
    s.add_argument("--spare", type=float, default=0.50, dest="spare_low",
                   help="mean-utilization migration gate (default 0.50)")
    s.add_argument("--dwell", type=int, default=3,
                   help="consecutive hot windows before firing (default 3)")
    s.add_argument("--cooldown", type=int, default=256,
                   help="post-episode quiet period in cycles (default 256)")
    s.add_argument("--sample-every", type=int, default=16, metavar="K",
                   help="probe period in cycles (default 16)")
    s.add_argument("--max-demote", type=int, default=8,
                   help="links demoted per episode at most (default 8)")
    s.add_argument("--penalty", type=float, default=0.5,
                   help="bandwidth scale applied to demoted links (default 0.5)")

    s = sub.add_parser(
        "montecarlo",
        help="fault Monte Carlo: k random failure schedules in one batch",
        description="Sample k random link-failure schedules over the plan's "
        "tree-carrying links and run them as lanes of the batched tensor "
        "engine (bit-identical per lane to serial fast-engine runs); prints "
        "the fault-free baseline, stall rate and completion-slowdown "
        "quantiles.",
    )
    s.add_argument("q", type=int)
    s.add_argument("--scheme", default="low-depth",
                   choices=("low-depth", "edge-disjoint", "single"))
    s.add_argument("-m", type=int, default=8, help="flits per tree (default 8)")
    s.add_argument("-k", "--trials", type=int, default=1000,
                   help="ensemble size (default 1000)")
    s.add_argument("--seed", type=int, default=0, help="rng seed (default 0)")
    s.add_argument("--num-faults", type=int, default=1,
                   help="distinct links failing per sample (default 1)")
    s.add_argument("--transient-fraction", type=float, default=0.5,
                   help="probability a failure revives (default 0.5)")
    s.add_argument("--engine", default="batched",
                   choices=("batched", "fast"),
                   help="evaluator; per-lane results are identical either way")
    s.add_argument("--chunk", type=int, default=512,
                   help="lanes per batched invocation (default 512)")

    s = sub.add_parser(
        "telemetry",
        help="instrumented run: utilization heatmap, hot links, queue peaks",
        description="Attach the telemetry collector to a cycle engine, run an "
        "Allreduce, and render what the probes saw: a per-window utilization "
        "heatmap for the hottest directed links, the top-N hot links by mean "
        "utilization, the deepest receiver queues and the end-of-run "
        "counters. The JSONL event stream (-o) is byte-identical no matter "
        "which engine produced it.",
    )
    s.add_argument("q", type=int)
    s.add_argument("--scheme", default="low-depth",
                   choices=("low-depth", "edge-disjoint", "single"))
    s.add_argument("-m", type=int, default=600, help="total flits")
    s.add_argument("--engine", default="leap",
                   choices=("reference", "fast", "leap"))
    s.add_argument("--sample-every", type=int, default=32, metavar="K",
                   help="probe period in cycles (default 32)")
    s.add_argument("--top", type=int, default=5,
                   help="hot links / queue peaks to list (default 5)")
    s.add_argument("--buffer", type=int, default=None, metavar="SLOTS",
                   help="per-flow credit buffer slots (default: unbounded)")
    s.add_argument("--capacity", type=int, default=1,
                   help="link capacity in flits/cycle")
    s.add_argument("--perf", action="store_true",
                   help="include the engine-identifying perf record "
                        "(construction stage timings, step/leap tallies)")
    s.add_argument("-o", "--output", default=None, metavar="FILE",
                   help="write the JSONL event trace to FILE")

    s = sub.add_parser("report", help="regenerate all paper tables/figures")
    s.add_argument("--qmax", type=int, default=128)
    s.add_argument("--figure1-q", type=int, default=11)
    s.add_argument("--measured-m", type=int, default=None, metavar="M",
                   help="add cycle-measured bandwidth columns (M flits per "
                        "tree, run on the leap engine)")
    s.add_argument("--sim-engine", default="leap",
                   choices=("reference", "fast", "leap"),
                   help="cycle engine behind --measured-m")

    s = sub.add_parser(
        "sweep",
        help="regenerate artifacts through the parallel sweep engine",
        description="Run the full artifact sweep through repro.sweep: "
        "process-pool fan-out of independent cells plus a content-addressed "
        "on-disk result cache. Output is byte-identical to the serial path.",
    )
    s.add_argument("-j", "--workers", type=int, default=None,
                   help="process-pool size (default: $REPRO_SWEEP_WORKERS or serial)")
    s.add_argument("--cache", nargs="?", const="", default=None, metavar="DIR",
                   help="enable the result cache; with no DIR uses "
                        "$REPRO_SWEEP_CACHE or ~/.cache/repro-sweep")
    s.add_argument("--out", default=None, metavar="DIR",
                   help="write the artifacts to DIR")
    s.add_argument("--check", nargs="?", const="results", default=None,
                   metavar="DIR", help="diff regenerated artifacts against DIR "
                   "(default results/); exit 1 on drift")
    s.add_argument("--qmax", type=int, default=128,
                   help="figure 5 radix sweep upper bound")
    s.add_argument("--figure1-q", type=int, default=11)
    s.add_argument("--measured-m", type=int, default=None, metavar="M",
                   help="cycle-measure the figure5/crossover/scaling "
                        "artifacts at M flits per tree (leap engine)")
    s.add_argument("--measured-qmax", type=int, default=19,
                   help="largest odd q to measure (bounds construction cost)")
    s.add_argument("--sim-engine", default="leap",
                   choices=("reference", "fast", "leap"),
                   help="cycle engine behind --measured-m")
    s.add_argument("--cache-stats", action="store_true",
                   help="print cache statistics and exit")
    s.add_argument("--clear-cache", action="store_true",
                   help="delete every cache entry and exit")

    s = sub.add_parser(
        "tenants",
        help="multi-tenant shared-fabric run: fairness/tail-latency table",
        description="Sample a seeded Poisson job mix, place it on one shared "
        "PolarFly (per-switch reduction slots and per-link budgets "
        "permitting) and run all tenants concurrently under each "
        "arbitration policy; prints per-tenant slowdowns versus the "
        "isolated baseline and the p50/p99 fairness table. --ablate adds "
        "the congestion-vs-isolation placement-mode grid.",
    )
    s.add_argument("q", type=int)
    s.add_argument("--scheme", default="low-depth",
                   choices=("low-depth", "edge-disjoint", "single"))
    s.add_argument("-k", "--tenants", type=int, default=4, dest="k",
                   help="number of tenant jobs (default 4)")
    s.add_argument("--mode", default="shared",
                   choices=("shared", "partitioned"),
                   help="placement: shared trees (congestion) vs disjoint "
                        "tree blocks (isolation)")
    s.add_argument("--policy", default=None,
                   choices=("fair-share", "strict-priority", "isolated-slice"),
                   help="single arbitration policy (default: all three)")
    s.add_argument("--seed", type=int, default=0, help="job-mix seed (default 0)")
    s.add_argument("--mean-interarrival", type=float, default=16.0,
                   help="Poisson mean inter-arrival gap in cycles (default 16)")
    s.add_argument("--mean-m", type=float, default=32.0,
                   help="geometric mean message size in elements (default 32)")
    s.add_argument("--engine", default="fast", choices=("fast", "reference"),
                   help="per-tenant cycle engine (bit-identical)")
    s.add_argument("--buffer", type=int, default=2, metavar="SLOTS",
                   help="per-flow credit buffer slots (default 2)")
    s.add_argument("--capacity", type=int, default=1,
                   help="link capacity in flits/cycle")
    s.add_argument("--ablate", action="store_true",
                   help="also print the congestion-vs-isolation "
                        "mode-by-policy ablation")

    s = sub.add_parser("config", help="emit per-router fabric configuration JSON")
    s.add_argument("q", type=int)
    s.add_argument("--scheme", default="low-depth",
                   choices=("low-depth", "low-depth-even", "edge-disjoint", "single"))
    s.add_argument("-o", "--output", default=None, help="output file (default stdout)")

    s = sub.add_parser("export", help="export topology/embedding drawings")
    s.add_argument("q", type=int)
    s.add_argument("--what", default="er", choices=("er", "singer", "trees"))
    s.add_argument("--scheme", default="low-depth",
                   choices=("low-depth", "edge-disjoint", "single"))
    s.add_argument("--format", default="dot", choices=("dot", "graphml"))
    s.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    return p


def _cmd_info(args) -> int:
    from repro.topology import polarfly_graph, singer_graph

    pf = polarfly_graph(args.q)
    sg = singer_graph(args.q)
    print(f"PolarFly ER_{args.q}: N={pf.n}, radix={pf.radix}, "
          f"edges={pf.graph.num_edges}")
    print(f"vertex classes: {pf.counts()}")
    print(f"Singer difference set: {set(sg.dset)} over Z_{sg.n}")
    print(f"reflection points: {set(sg.reflections)}")
    return 0


def _cmd_plan(args) -> int:
    from repro.core import build_plan, optimal_bandwidth
    from repro.core.plancache import global_plan_cache
    from repro.utils.profiling import StageTimer

    cache = global_plan_cache()
    timer = StageTimer()
    key = cache.key(args.q, args.scheme, args.bandwidth)
    hit, plan = cache.get(key)
    if not hit:
        plan = build_plan(args.q, args.scheme, link_bandwidth=args.bandwidth,
                          timer=timer)
        cache.put(key, plan)
    print(f"scheme={args.scheme} q={args.q}: {plan.num_trees} trees")
    print(f"  depth={plan.max_depth} congestion={plan.max_congestion} "
          f"vcs={plan.vcs_required}")
    print(f"  aggregate bandwidth {plan.aggregate_bandwidth} "
          f"(optimal {optimal_bandwidth(args.q, args.bandwidth)}, "
          f"normalized {float(plan.normalized_bandwidth):.4f})")
    if args.m:
        with timer.stage("partition"):
            parts = plan.partition(args.m)
        print(f"  partition of m={args.m}: {parts}")
        print(f"  estimated time (hop latency 1): "
              f"{float(plan.estimated_time(args.m, 1)):.1f}")
    stats = cache.stats()
    print(f"  plan cache: {'hit' if hit else 'miss'} "
          f"({stats['hits']} hits / {stats['misses']} misses this process)")
    if timer.stages_ns:
        print("  construction stages:")
        for name, ns in timer.as_dict_ns().items():
            print(f"    {name:<20} {ns / 1e6:>9.2f} ms")
        print(f"    {'total':<20} {timer.total_ns() / 1e6:>9.2f} ms")
    return 0


def _cmd_simulate(args) -> int:
    from repro.core import get_plan
    from repro.simulator import fluid_simulate, simulate_allreduce

    plan = get_plan(args.q, args.scheme)
    parts = plan.partition(args.m)
    stats = simulate_allreduce(
        plan.topology,
        plan.trees,
        parts,
        link_capacity=args.capacity,
        buffer_size=args.buffer,
        engine=args.engine,
    )
    fluid = fluid_simulate(plan.topology, plan.trees, args.m, hop_latency=1)
    print(f"scheme={args.scheme} q={args.q} m={args.m} engine={args.engine}")
    print(f"  measured: {stats.cycles} cycles, "
          f"aggregate bandwidth {stats.aggregate_bandwidth:.3f} flits/cycle")
    print(f"  predicted: {float(fluid.makespan):.0f} cycles, "
          f"Algorithm 1 bound {float(plan.aggregate_bandwidth):.3f}")
    return 0


def _cmd_faults(args) -> int:
    from repro.analysis.recovery import used_links
    from repro.core import get_plan
    from repro.simulator import FaultSchedule, run_with_recovery

    plan = get_plan(args.q, args.scheme)
    edge = tuple(args.link) if args.link else used_links(plan)[0]
    faults = FaultSchedule.single(edge, args.down, up=args.up)
    res = run_with_recovery(
        plan,
        args.m,
        faults,
        policy=args.policy,
        engine=args.engine,
        link_capacity=args.capacity,
        buffer_size=args.buffer,
    )
    window = f"cycle {args.down}" + (f"..{args.up}" if args.up else " (permanent)")
    print(f"scheme={args.scheme} q={args.q} m={args.m} engine={args.engine} "
          f"link {edge} down at {window}")
    for i, ep in enumerate(res.episodes):
        print(f"  episode {i}: stall at cycle {ep.detect_cycle} "
              f"({ep.cycles_to_detect} cycles after the failure), "
              f"{ep.policy} re-plan, trees lost {list(ep.trees_lost)}"
              + (f", {ep.trees_regrown} regrown" if ep.trees_regrown else "")
              + f", {ep.flits_redone} flits re-submitted")
    if not res.episodes:
        print("  no stall: the pipeline rode the fault out on the original trees")
    print(f"  completed in {res.total_cycles} cycles on {res.final_num_trees} "
          f"trees ({res.final_scheme})")
    print(f"  bandwidth before/after: {res.bandwidth_before:.3f}/"
          f"{res.bandwidth_after:.3f} flits/cycle"
          + (f"  recovery took {res.recovery_cycles} cycles"
             if res.episodes else ""))
    return 0


def _cmd_adapt(args) -> int:
    from repro.analysis.adaptive import skewed_partition
    from repro.core import get_plan
    from repro.simulator import AdaptivePolicy, run_adaptive, simulate_allreduce

    plan = get_plan(args.q, args.scheme)
    parts = skewed_partition(plan, args.m, args.skew)
    policy = AdaptivePolicy(
        util_high=args.util_high,
        util_low=args.util_low,
        spare_low=args.spare_low,
        dwell=args.dwell,
        max_demote=args.max_demote,
        cooldown=args.cooldown,
        penalty=args.penalty,
        sample_every=args.sample_every,
    )
    static = simulate_allreduce(plan.topology, plan.trees, parts, engine=args.engine)
    balanced = simulate_allreduce(
        plan.topology, plan.trees, plan.partition(args.m), engine=args.engine
    )
    res = run_adaptive(plan, m_per_tree=parts, policy=policy, engine=args.engine)
    print(f"scheme={args.scheme} q={args.q} m={args.m} skew={args.skew} "
          f"engine={args.engine} (watched {res.windows_observed} windows)")
    print(f"  static (skewed, no controller): {static.cycles} cycles")
    for i, ep in enumerate(res.episodes):
        print(f"  episode {i}: hot streak from cycle {ep.fault_cycle}, fired "
              f"at {ep.detect_cycle} ({ep.cycles_to_detect} cycles to decide); "
              f"demoted {len(ep.failed_links)} links, migrated trees "
              f"{list(ep.trees_lost)} ({ep.trees_regrown} rebuilt), "
              f"{ep.flits_redone} flits re-submitted")
    if not res.episodes:
        print("  controller never fired (no sustained congestion with spare "
              "capacity elsewhere)")
    print(f"  adaptive: {res.total_cycles} cycles on {res.final_num_trees} "
          f"trees ({res.final_scheme})"
          + (f" — {static.cycles / res.total_cycles:.2f}x over static"
             if res.total_cycles else ""))
    print(f"  balanced-partition oracle: {balanced.cycles} cycles")
    return 0


def _cmd_montecarlo(args) -> int:
    from repro.analysis.montecarlo import fault_monte_carlo

    result = fault_monte_carlo(
        args.q,
        scheme=args.scheme,
        m=args.m,
        k=args.trials,
        seed=args.seed,
        num_faults=args.num_faults,
        transient_fraction=args.transient_fraction,
        engine=args.engine,
        chunk=args.chunk,
    )
    print(result.render())
    return 0


_HEAT_GLYPHS = " .:-=+*#%@"


def _cmd_telemetry(args) -> int:
    from repro.core import build_plan
    from repro.simulator import simulate_allreduce
    from repro.telemetry import Collector, loads_telemetry
    from repro.utils.profiling import StageTimer

    timer = StageTimer()
    plan = build_plan(args.q, args.scheme, timer=timer)
    with timer.stage("partition"):
        parts = plan.partition(args.m)
    col = Collector(sample_every=args.sample_every, include_perf=args.perf)
    col.set_construction(timer)
    stats = simulate_allreduce(
        plan.topology,
        plan.trees,
        parts,
        link_capacity=args.capacity,
        buffer_size=args.buffer,
        engine=args.engine,
        telemetry=col,
    )
    run = loads_telemetry(col.to_jsonl())
    util = run.utilization(0)
    counters = col.counters[0]
    print(f"scheme={args.scheme} q={args.q} m={args.m} engine={args.engine}: "
          f"{stats.cycles} cycles, {util.shape[0]} samples every "
          f"{args.sample_every} cycles over {util.shape[1]} channels")
    print(f"  flit-hops {counters.flits_moved} "
          f"(reduce {sum(counters.reduce_hops)}, "
          f"broadcast {sum(counters.broadcast_hops)}), "
          f"stall cycles {counters.stall_cycles}")
    stages = ", ".join(
        f"{name} {ns / 1e6:.1f} ms" for name, ns in timer.as_dict_ns().items()
    )
    print(f"  plan construction {timer.total_ns() / 1e6:.1f} ms ({stages})")

    hot = run.hot_links(top=args.top)
    if hot and util.shape[0]:
        chan_index = {c: i for i, c in enumerate(run.leg(0).channels)}
        print(f"  utilization heatmap (rows: top {len(hot)} links; "
              f"cols: sample windows; scale '{_HEAT_GLYPHS}' = 0..1):")
        for (u, v), _, _ in hot:
            row = util[:, chan_index[(u, v)]]
            cells = "".join(
                _HEAT_GLYPHS[min(int(x * len(_HEAT_GLYPHS)), len(_HEAT_GLYPHS) - 1)]
                for x in row
            )
            print(f"    {u:>3}->{v:<3} |{cells}|")
    print(f"  top {len(hot)} hot links (mean utilization / sampled flits):")
    for (u, v), mean, total in hot:
        print(f"    {u:>3}->{v:<3}  {mean:>6.3f}  {total:>6}")
    peaks = run.queue_peaks(top=args.top)
    print("  deepest receiver queues (router: peak sampled occupancy): "
          + (", ".join(f"{r}:{p}" for r, p in peaks) if peaks else "none"))
    if args.output:
        col.write(args.output)
        print(f"  wrote {len(col.records)} JSONL records to {args.output}")
    return 0


def _cmd_report(args) -> int:
    from repro.analysis import full_report

    print(full_report(
        q_hi=args.qmax,
        figure1_q=args.figure1_q,
        measured_m=args.measured_m,
        engine=args.sim_engine,
    ))
    return 0


def _cmd_sweep(args) -> int:
    from repro.sweep import (
        SweepCache,
        SweepRunner,
        check_artifacts,
        generate_artifacts,
        write_artifacts,
    )

    cache = SweepCache(args.cache or None) if args.cache is not None else None
    if args.cache_stats or args.clear_cache:
        cache = cache or SweepCache()
        if args.clear_cache:
            removed = cache.clear()
            print(f"cleared {removed} entries under {cache.root}")
            return 0
        for k, v in cache.stats().items():
            print(f"{k:>10}: {v}")
        return 0

    runner = SweepRunner(workers=args.workers, cache=cache)
    artifacts = generate_artifacts(
        runner,
        q_hi=args.qmax,
        figure1_q=args.figure1_q,
        measured_m=args.measured_m,
        measured_q_max=args.measured_qmax,
        engine=args.sim_engine,
    )

    if args.check is not None:
        drifted = check_artifacts(args.check, artifacts)
        for name in artifacts:
            print(f"{'DRIFT' if name in drifted else 'ok':>6}  {args.check}/{name}")
        print(runner.total.render())
        return 1 if drifted else 0
    if args.out:
        for path in write_artifacts(args.out, artifacts):
            print(f"wrote {path}")
    else:
        for name, text in artifacts.items():
            print(f"{len(text.encode()):>8} bytes  {name}")
    print(runner.total.render())
    return 0


def _cmd_export(args) -> int:
    from repro.topology import polarfly_graph, singer_graph
    from repro.topology.export import (
        embedding_to_dot,
        graph_to_dot,
        graph_to_graphml,
        singer_to_dot,
    )

    if args.what == "trees":
        from repro.core import get_plan

        plan = get_plan(args.q, args.scheme)
        if args.format != "dot":
            print("tree embeddings are exported as DOT only", file=sys.stderr)
            return 2
        text = embedding_to_dot(plan.topology, plan.trees)
    elif args.what == "singer":
        sg = singer_graph(args.q)
        if args.format == "graphml":
            if not args.output:
                print("--format graphml requires -o", file=sys.stderr)
                return 2
            graph_to_graphml(sg.graph, args.output)
            return 0
        text = singer_to_dot(sg)
    else:
        pf = polarfly_graph(args.q)
        if args.format == "graphml":
            if not args.output:
                print("--format graphml requires -o", file=sys.stderr)
                return 2
            graph_to_graphml(pf.graph, args.output)
            return 0
        labels = {v: f"{v}:{pf.vertex_type(v)}" for v in range(pf.n)}
        text = graph_to_dot(pf.graph, node_labels=labels)
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


def _cmd_tenants(args) -> int:
    from repro.analysis.tenancy import (
        fairness_data,
        render_fairness,
        render_tenancy_ablation,
        tenancy_ablation,
    )
    from repro.tenancy import POLICIES

    policies = (args.policy,) if args.policy else POLICIES
    rows = fairness_data(
        args.q,
        args.k,
        args.scheme,
        args.mode,
        args.seed,
        policies=policies,
        mean_interarrival=args.mean_interarrival,
        mean_m=args.mean_m,
        link_capacity=args.capacity,
        buffer_size=args.buffer,
        engine=args.engine,
    )
    print(render_fairness(rows))
    print()
    print(f"{'tenant':>6} {'arrive':>6} {'m':>5} {'trees':>5} "
          f"{'policy':<16} {'status':<9} {'local':>6} {'solo':>5} "
          f"{'slow':>6} {'blocked':>7}")
    for r in rows:
        for t in r["tenants"]:
            print(f"{t['tenant']:>6} {t['arrival']:>6} {t['m']:>5} "
                  f"{t['tree_count']:>5} {r['policy']:<16} "
                  f"{t['status']:<9} {t['local_cycles']:>6} "
                  f"{t['solo_cycles']:>5} {t['slowdown']:>6.2f} "
                  f"{t['blocked_cycles']:>7}")
    if args.ablate:
        scheme = args.scheme if args.scheme != "single" else "edge-disjoint"
        ab = tenancy_ablation(
            args.q,
            min(args.k, 2),
            "edge-disjoint" if scheme == "low-depth" else scheme,
            args.seed,
            policies=policies,
            link_capacity=args.capacity,
            buffer_size=args.buffer,
            engine=args.engine,
        )
        print()
        print(render_tenancy_ablation(ab))
    return 0


def _cmd_config(args) -> int:
    from repro.core import get_plan
    from repro.simulator import generate_fabric_config

    plan = get_plan(args.q, args.scheme)
    text = generate_fabric_config(plan.topology, plan.trees).to_json()
    if args.output:
        with open(args.output, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "plan": _cmd_plan,
    "simulate": _cmd_simulate,
    "faults": _cmd_faults,
    "adapt": _cmd_adapt,
    "montecarlo": _cmd_montecarlo,
    "telemetry": _cmd_telemetry,
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "tenants": _cmd_tenants,
    "config": _cmd_config,
    "export": _cmd_export,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:  # stdout consumer (e.g. `| head`) went away
        try:
            sys.stdout.close()
        except Exception:
            pass
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
