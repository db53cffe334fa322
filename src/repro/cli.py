"""Command-line interface: ``python -m repro <command>`` (or ``repro``).

Commands:

* ``models``    — list the model zoo;
* ``summary``   — layer table, MACs and params of one model;
* ``latency``   — cycles/ms of a model (optionally FuSe-transformed) on a
  configurable systolic array;
* ``table1``    — regenerate Table I (counts + speed-ups) on the terminal;
* ``simulate``  — push real values through the functional PE-grid
  simulator (``--engine vector|reference``) and check them against the
  analytical cycle model;
* ``ria``       — classify an algorithm (or all) under the RIA formalism;
* ``overhead``  — broadcast-link area/power overhead for an array size;
* ``nos``       — per-layer operator search under a latency budget;
* ``compile-stats`` — compile a model into a static inference plan and
  report what folding/fusion/arena planning did (``docs/runtime.md``);
* ``serve``     — async dynamic-batching inference server (JSON-lines TCP)
  with SLO-aware scheduling over the model zoo (``docs/serving.md``);
* ``loadgen``   — deterministic closed/open-loop load generation against
  an in-process server or a running ``serve`` instance (``--connect``);
* ``top``       — live terminal telemetry (QPS, windowed percentiles,
  shed/burn-rate alerts) scraped from a running ``serve`` over the wire
  protocol's ``op: metrics``.

Every subcommand accepts the observability options (after the command
name): ``--trace-out FILE`` dumps a Chrome-trace JSON of the run,
``--metrics-out FILE`` a metrics JSON sidecar (``-`` = stdout for both),
``--log-level`` / ``--quiet`` control the structured diagnostics on
stderr.  Result tables always stay on stdout.  ``repro --version`` prints
the toolkit version and git SHA.  See ``docs/observability.md``.

Sweep commands (``latency``, ``table1``, ``simulate``) additionally take
``--jobs N`` (process-pool fan-out; 0 = all cores) and ``--cache-dir DIR``
(on-disk latency memo) — see ``docs/performance.md``.  ``--trace-out``
forces ``--jobs 1``: spans cannot cross process boundaries.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import Counter
from typing import List, Optional

from . import obs
from .analysis import format_table, table1
from .core import FuSeVariant, to_fuseconv
from .hw import broadcast_overhead, energy_report
from .models import available_models, build_model
from .nos import search_operators
from .ria import ALGORITHMS, check_ria
from .systolic import (
    ENGINES,
    ArrayConfig,
    estimate_network,
    network_buffer_requirement,
    traffic_report,
)

_VARIANTS = {
    "full": FuSeVariant.FULL,
    "half": FuSeVariant.HALF,
    "full_50": FuSeVariant.FULL_50,
    "half_50": FuSeVariant.HALF_50,
}

log = obs.get_logger("cli")


def _array_from_args(args: argparse.Namespace) -> ArrayConfig:
    return ArrayConfig.square(
        args.array,
        dataflow=args.dataflow,
        datawidth=getattr(args, "datawidth", 16),
        pipelined_folds=args.pipelined,
    )


def _add_array_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--array", type=int, default=64,
                        help="square array size (default 64)")
    parser.add_argument("--dataflow", choices=("os", "ws", "is"), default="os",
                        help="GEMM dataflow (default os, as in the paper)")
    parser.add_argument("--pipelined", action="store_true",
                        help="enable fold pipelining (calibration knob)")
    parser.add_argument("--datawidth", type=int, choices=(8, 16), default=16,
                        help="PE datapath width in bits: 16 = FP16 MACs "
                             "(paper), 8 = int8 MACs with int32 accumulation "
                             "(changes energy/area, not cycles)")


def _add_parallel_options(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("performance")
    group.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes for the sweep (default "
                            "$REPRO_JOBS or 1; 0 = all cores)")
    group.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="on-disk memo cache for latency estimates "
                            "(shared across runs; see docs/performance.md)")


def _effective_jobs(args: argparse.Namespace) -> Optional[int]:
    """The ``--jobs`` value, forced to 1 (with a warning) under tracing."""
    jobs = getattr(args, "jobs", None)
    if args.trace_out and jobs not in (None, 1):
        log.warning("tracing forces --jobs 1 (spans cannot cross processes)",
                    requested=jobs)
        return 1
    return jobs


def _obs_options() -> argparse.ArgumentParser:
    """Shared observability options, attached to every subcommand."""
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("observability")
    group.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write a Chrome-trace JSON of this run "
                            "('-' = stdout; open in Perfetto)")
    group.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write a metrics JSON sidecar ('-' = stdout)")
    group.add_argument("--log-level", choices=sorted(obs.logs.LEVELS),
                       default="info", help="diagnostic log level (stderr)")
    group.add_argument("--quiet", action="store_true",
                       help="suppress diagnostics (tables still print)")
    return parent


def _add_model_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("model", nargs="?", default=None,
                        help="model name (see 'repro models')")
    parser.add_argument("--net", metavar="MODEL", default=None,
                        help="model name (alternative to the positional)")


def _model_name(args: argparse.Namespace) -> str:
    name = args.net or args.model
    if name is None:
        raise ValueError("no model given (positional MODEL or --net)")
    # Accept paper-style spellings like 'mobilenet-v2'.
    return name.replace("-", "_")


def cmd_models(args: argparse.Namespace) -> int:
    for name in available_models():
        print(name)
    return 0


def cmd_summary(args: argparse.Namespace) -> int:
    net = build_model(_model_name(args), resolution=args.resolution)
    if args.variant:
        net = to_fuseconv(net, _VARIANTS[args.variant])
    if args.dot:
        from .ir import network_to_dot

        with open(args.dot, "w") as handle:
            handle.write(network_to_dot(net))
        log.info("wrote DOT graph", path=args.dot, network=net.name)
        return 0
    print(net.summary())
    return 0


def cmd_latency(args: argparse.Namespace) -> int:
    array = _array_from_args(args)
    name = _model_name(args)
    variants = (
        (_VARIANTS[args.variant],) if args.variant else tuple(_VARIANTS.values())
    )
    measured = table1(
        networks=(name,),
        variants=variants,
        array=array,
        jobs=_effective_jobs(args),
        cache_dir=args.cache_dir,
        resolution=args.resolution,
    )
    rows = [
        [
            row.variant or "baseline",
            f"{row.macs_millions:.0f}",
            f"{row.params_millions:.2f}",
            f"{row.cycles:,}",
            f"{row.latency_ms:.3f}",
            f"{row.speedup:.2f}x",
        ]
        for row in measured
    ]
    print(format_table(
        ["variant", "MACs(M)", "params(M)", "cycles", "ms", "speedup"],
        rows,
        title=f"{name} on a {array.rows}x{array.cols} array "
              f"({array.dataflow}, {'pipelined' if array.pipelined_folds else 'conservative'})",
    ))
    return 0


def cmd_table1(args: argparse.Namespace) -> int:
    rows = []
    for row in table1(jobs=_effective_jobs(args), cache_dir=args.cache_dir):
        paper = row.paper
        rows.append([
            row.network,
            row.variant or "baseline",
            f"{row.macs_millions:.0f}",
            f"{row.params_millions:.2f}",
            f"{row.speedup:.2f}x",
            f"{paper.speedup:.2f}x" if paper else "-",
        ])
    print(format_table(
        ["network", "variant", "MACs(M)", "params(M)", "speedup", "paper"],
        rows,
        title="Table I (measured; 64x64 output-stationary array)",
    ))
    return 0


def cmd_sparsity(args: argparse.Namespace) -> int:
    from .analysis import format_table
    from .analysis.sparsity import packing_advantage, sparsity_sweep

    networks = [_model_name(args)] if (args.net or args.model) else [
        "mobilenet_v3_small"]
    sparsities = [float(s) for s in args.sparsities.split(",") if s]
    gammas = [int(g) for g in args.gammas.split(",") if g]
    sizes = [int(s) for s in args.sizes.split(",") if s]
    rows = sparsity_sweep(
        networks=networks, sparsities=sparsities, gammas=gammas,
        sizes=sizes, seed=args.seed, cache_dir=args.cache_dir,
        resolution=args.resolution,
    )
    print(format_table(
        ["network", "variant", "sparsity", "γ", "array", "dense",
         "packed", "speedup", "dw-ratio", "dropped"],
        [[r.network, r.variant or "baseline", f"{r.sparsity:.0%}",
          str(r.gamma), f"{r.rows}x{r.rows}", str(r.dense_cycles),
          str(r.packed_cycles), f"{r.speedup:.2f}x",
          f"{r.dw_packed_ratio:.2f}", f"{r.dw_drop_fraction:.0%}"]
         for r in rows],
        title="Sparsity x column-combining sweep (analytical; "
              "dw-ratio = packed/dense cycles of depthwise-class compute, "
              "dropped = fully-eliminated channels)",
    ))
    pairs = packing_advantage(rows)
    if pairs:
        print()
        print(format_table(
            ["network", "sparsity", "γ", "array", "variant",
             "ratio 2D/FuSe", "dropped 2D/FuSe", "packed cyc 2D/FuSe"],
            [[a.network, f"{a.sparsity:.0%}", str(a.gamma),
              f"{a.rows}x{a.rows}", a.variant,
              f"{a.base_ratio:.2f} / {a.fuse_ratio:.2f}",
              f"{a.base_drop_fraction:.0%} / {a.fuse_drop_fraction:.0%}",
              f"{a.base_packed_cycles} / {a.fuse_packed_cycles}"]
             for a in pairs],
            title="Packing comparison on depthwise-class compute: FuSe's "
                  "independent rows vanish when fully pruned and stay "
                  "cheaper absolute; the 2D schedule recovers a larger "
                  "fraction of its (much larger) dense cost",
        ))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from .systolic.executor import ArrayNetworkExecutor

    array = _array_from_args(args)
    net = _net_for(args)
    executor = ArrayNetworkExecutor(
        net, array=array, seed=args.seed,
        engine=args.engine, jobs=_effective_jobs(args) or 1,
    )
    x = np.random.default_rng(args.seed).standard_normal(net.input_shape)
    start = time.perf_counter()
    run = executor.run(x)
    elapsed = time.perf_counter() - start
    mismatches = [layer for layer in run.layers if not layer.consistent]
    print(f"{net.name} on {array.rows}x{array.cols} "
          f"({array.dataflow}, engine={executor.engine}, jobs={executor.jobs}):")
    print(f"  cycles      : {run.cycles:,}")
    print(f"  latency     : {array.cycles_to_ms(run.cycles):.3f} ms @ "
          f"{array.frequency_mhz:.0f} MHz")
    print(f"  array layers: {len(run.layers)}")
    print(f"  model check : "
          f"{'all layers match the analytical model' if run.all_cycles_consistent else f'{len(mismatches)} layer(s) diverge'}")
    print(f"  wall clock  : {elapsed:.2f} s")
    return 0 if run.all_cycles_consistent else 1


def cmd_ria(args: argparse.Namespace) -> int:
    names = [args.algorithm] if args.algorithm else sorted(ALGORITHMS)
    status = 0
    for name in names:
        try:
            builder = ALGORITHMS[name]
        except KeyError:
            print(f"unknown algorithm {name!r}; choose from: "
                  f"{', '.join(sorted(ALGORITHMS))}", file=sys.stderr)
            return 2
        print(check_ria(builder()).explain())
        print()
    return status


def cmd_overhead(args: argparse.Namespace) -> int:
    width = getattr(args, "datawidth", 16)
    report = broadcast_overhead(args.size, datawidth=width)
    print(f"{args.size}x{args.size} array, {width}-bit PEs, "
          f"45nm structural model:")
    print(f"  area overhead : {report.area_overhead * 100:.2f}%  (paper: 4.35% @32x32)")
    print(f"  power overhead: {report.power_overhead * 100:.2f}%  (paper: 2.25% @32x32)")
    return 0


def cmd_nos(args: argparse.Namespace) -> int:
    array = _array_from_args(args)
    net = build_model(_model_name(args), resolution=args.resolution)
    result = search_operators(net, latency_budget=args.budget, array=array)
    mix = Counter(result.choices.values())
    print(f"searched {len(result.choices)} depthwise layers: "
          f"keep={mix[None]} full={mix[1]} half={mix[2]}")
    print(f"searched-layer cycles: {result.cycles:,}  params: {result.params:,}")
    mixed = result.build(net)
    base = estimate_network(net, array).total_cycles
    cycles = estimate_network(mixed, array).total_cycles
    print(f"whole-network speedup: {base / cycles:.2f}x")
    return 0


def _net_for(args: argparse.Namespace):
    net = build_model(_model_name(args), resolution=args.resolution)
    if getattr(args, "variant", None):
        net = to_fuseconv(net, _VARIANTS[args.variant])
    return net


def cmd_traffic(args: argparse.Namespace) -> int:
    array = _array_from_args(args)
    report = traffic_report(_net_for(args), array)
    print(f"{report.network} on {array.rows}x{array.cols}:")
    print(f"  SRAM reads : {report.total_sram_reads:,} values")
    print(f"  SRAM writes: {report.total_sram_writes:,} values")
    print(f"  DRAM bytes : {report.total_dram_bytes:,} (unique operands, FP16)")
    print(f"  read amplification: {report.mean_read_amplification:.2f}x")
    return 0


def cmd_buffers(args: argparse.Namespace) -> int:
    array = _array_from_args(args)
    req = network_buffer_requirement(_net_for(args), array)
    print(f"minimum stall-free SRAM ({array.rows}x{array.cols}, double-buffered):")
    print(f"  input buffer : {req.input_bytes:,} B")
    print(f"  output buffer: {req.output_bytes:,} B")
    print(f"  total        : {req.total_kib:.1f} KiB")
    return 0


def cmd_energy(args: argparse.Namespace) -> int:
    array = _array_from_args(args)
    report = energy_report(_net_for(args), array)
    print(f"{report.network} on {array.rows}x{array.cols}: "
          f"{report.total_uj:.1f} uJ / inference")
    print(f"  MAC        : {report.mac_pj / 1e6:.2f} uJ")
    print(f"  SRAM read  : {report.sram_read_pj / 1e6:.2f} uJ")
    print(f"  SRAM write : {report.sram_write_pj / 1e6:.2f} uJ")
    print(f"  static     : {report.static_pj / 1e6:.2f} uJ")
    print(f"  data movement share: {report.movement_fraction * 100:.1f}%")
    return 0


def cmd_compile_stats(args: argparse.Namespace) -> int:
    from .nn.compile import CompileConfig, compile_executor
    from .nn.graph import GraphExecutor

    if args.exact and args.int8:
        print("--exact and --int8 are mutually exclusive", file=sys.stderr)
        return 2
    if args.exact and args.sparsity is not None:
        print("--exact and --sparsity are mutually exclusive (the exact "
              "preset is bit-identical to the unpruned forward)",
              file=sys.stderr)
        return 2
    net = _net_for(args)
    executor = GraphExecutor(net, seed=args.seed)
    executor.eval()
    if args.sparsity is not None:
        if args.int8:
            config = CompileConfig.sparse_int8(sparsity=args.sparsity,
                                               gamma=args.gamma)
        else:
            config = CompileConfig.sparse(sparsity=args.sparsity,
                                          gamma=args.gamma)
    elif args.int8:
        config = CompileConfig.int8()
    elif args.exact:
        config = CompileConfig.exact()
    else:
        config = CompileConfig()
    plan = compile_executor(
        executor, (args.batch,) + tuple(net.input_shape), config
    )
    s = plan.stats
    mode = ("int8 (quantized)" if args.int8
            else "exact (bit-identical)" if args.exact else "folded")
    if args.sparsity is not None:
        mode = f"sparse ({mode}, target {args.sparsity:.0%}, γ={args.gamma})"
    print(f"{s.network}: compiled {mode} plan for input {plan.input_shape}")
    print(f"  nodes -> ops : {s.nodes} -> {s.ops}")
    print(f"  folded BN    : {s.folded_bn}")
    print(f"  fused act    : {s.fused_activations}")
    if args.int8:
        print(f"  int8 ops     : {s.int8_ops} "
              f"({s.int8_fallbacks} float fallbacks)")
    if s.params_removed or s.packed_columns:
        print(f"  sparsity     : {s.sparsity:.1%} "
              f"({s.params_removed} params removed)")
        print(f"  packed cols  : {s.packed_columns} "
              f"({s.columns_combined} combined away)")
    print(f"  arena        : {s.arena_bytes / 1024:.0f} KiB "
          f"(pool {s.pooled_bytes / 1024:.0f} KiB, "
          f"naive {s.naive_bytes / 1024:.0f} KiB, "
          f"saving {s.arena_saving * 100:.1f}%)")
    print(f"  compile time : {s.compile_ms:.1f} ms")
    if args.passes:
        print("  passes:")
        if not plan.pass_results:
            print("    (none — the exact preset runs an empty pipeline)")
        for r in plan.pass_results:
            line = (f"    {r.name:<16} {r.ms:>8.2f} ms"
                    f"  params_removed={r.params_removed}"
                    f"  columns_combined={r.columns_combined}")
            if r.details:
                detail = ", ".join(f"{k}={v}" for k, v in r.details.items())
                line += f"  ({detail})"
            print(line)
    return 0


def cmd_timeline(args: argparse.Namespace) -> int:
    from .analysis import execution_timeline

    array = _array_from_args(args)
    timeline = execution_timeline(_net_for(args), array)
    print(timeline.render(top=args.top))
    return 0


def _add_variant_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--variant", "--fuse", dest="variant",
                        choices=sorted(_VARIANTS),
                        help="FuSe variant to apply (alias: --fuse)")


# ------------------------------------------------------------------ serving

def _add_serve_options(parser: argparse.ArgumentParser) -> None:
    """Knobs shared by ``serve`` and in-process ``loadgen``."""
    from .serve import ServeConfig

    group = parser.add_argument_group("serving")
    parser.add_argument("models", nargs="*", metavar="MODEL",
                        help="models to serve; 'name' or 'name:variant' "
                             "(default mobilenet_v3_small mobilenet_v1)")
    parser.add_argument("--net", metavar="MODELS", default=None,
                        help="comma-separated model list (alternative to "
                             "the positionals; same name[:variant] syntax)")
    _add_variant_option(parser)
    parser.add_argument("--resolution", type=int, default=64,
                        help="input resolution served (default 64)")
    parser.add_argument("--seed", type=int, default=0,
                        help="weight seed of every served model")
    group.add_argument("--engine", choices=("graph", "array", "analytical"),
                       default=ServeConfig.engine,
                       help="batch executor: numpy forward (graph, default), "
                            "functional simulated hardware (array), or cost "
                            "model only (analytical)")
    group.add_argument("--workers", type=int, default=ServeConfig.workers,
                       help="concurrent batch executors "
                            f"(default {ServeConfig.workers})")
    group.add_argument("--max-batch", type=int, default=ServeConfig.max_batch,
                       help="dynamic batch ceiling "
                            f"(default {ServeConfig.max_batch})")
    group.add_argument("--max-queue", type=int, default=ServeConfig.max_queue,
                       help="admission bound; beyond it requests are shed "
                            f"(default {ServeConfig.max_queue})")
    group.add_argument("--slo-ms", type=float, default=ServeConfig.slo_ms,
                       help="default per-request deadline budget "
                            f"(default {ServeConfig.slo_ms:g})")
    group.add_argument("--batch-timeout-ms", type=float,
                       default=ServeConfig.batch_timeout_ms,
                       help="longest a batch lingers for more requests to "
                            "join it (default 0: a free worker runs what is "
                            "queued at once).  Raise it to a few ms only "
                            "for stacked batches (--int8, --no-bitexact) "
                            "under bursty load")
    group.add_argument("--no-bitexact", dest="bitexact", action="store_false",
                       help="stacked batch execution (faster, float-close "
                            "instead of bit-identical to unbatched)")
    group.add_argument("--int8", action="store_true",
                       help="serve requests on the int8 quantized plan by "
                            "default (requests may also opt in per-request "
                            "with the 'int8' wire field; with loadgen "
                            "--connect the remote server's --int8 governs)")
    group.add_argument("--no-compile", dest="compile", action="store_false",
                       help="eager graph execution instead of compiled "
                            "inference plans (see docs/runtime.md)")
    group.add_argument("--no-resilience", dest="resilience",
                       action="store_false",
                       help="disable the degradation chain, circuit breakers "
                            "and worker restarts (failures surface as "
                            "errors; see docs/robustness.md)")
    group.add_argument("--no-telemetry", dest="telemetry",
                       action="store_false",
                       help="disable the snapshot loop feeding live stats "
                            "and burn-rate alerts (see docs/observability.md)")
    group.add_argument("--snapshot-interval", type=float,
                       default=ServeConfig.snapshot_interval_s, metavar="S",
                       help="telemetry sampling cadence in seconds "
                            f"(default {ServeConfig.snapshot_interval_s:g})")
    group.add_argument("--metrics-port", type=int, default=None, metavar="P",
                       help="also expose GET /metrics + /telemetry over HTTP "
                            "on this port (0 = ephemeral; default off — "
                            "'op: metrics' on the main port always works)")
    group.add_argument("--plan-cache-cap", type=int, default=None, metavar="N",
                       help="LRU bound on compiled plans kept per model "
                            "across (batch, flavor) keys; evictions count "
                            "as serve.plan_evictions (default unbounded)")
    group.add_argument("--sparsity", type=float, default=None, metavar="F",
                       help="magnitude-prune + column-combine the non-exact "
                            "plan flavors to this fraction (plan metadata "
                            "on the existing flavors; default dense)")
    group.add_argument("--pack-gamma", type=int,
                       default=ServeConfig.pack_gamma, metavar="G",
                       help="column-combining group-size limit for "
                            f"--sparsity (default {ServeConfig.pack_gamma}; "
                            "1 = identity packing)")
    group.add_argument("--require-warmup", action="store_true",
                       help="hold health at warming (unroutable in a fleet) "
                            "until 'op: warmup' has pre-compiled the served "
                            "lanes — the fleet scale-up gate "
                            "(see docs/robustness.md)")
    _add_array_options(parser)
    _add_parallel_options(parser)


def _serve_keys(args: argparse.Namespace) -> list:
    """The ModelKeys named on a serve/loadgen command line."""
    from .serve import ModelKey

    names: List[str] = list(args.models or [])
    if args.net:
        names.extend(part.strip() for part in args.net.split(",") if part.strip())
    if not names:
        names = ["mobilenet_v3_small", "mobilenet_v1"]
    keys = []
    for name in names:
        variant = args.variant
        if ":" in name:
            name, variant = name.split(":", 1)
        name = name.replace("-", "_")
        if variant is not None and variant not in _VARIANTS:
            raise ValueError(
                f"unknown FuSe variant {variant!r}; choose from "
                f"{', '.join(sorted(_VARIANTS))}"
            )
        keys.append(ModelKey(network=name, variant=variant,
                             resolution=args.resolution, seed=args.seed))
    return keys


def _serve_config(args: argparse.Namespace, keys: list):
    from .serve import ServeConfig

    return ServeConfig(
        engine=args.engine,
        workers=args.workers,
        max_batch=args.max_batch,
        max_queue=args.max_queue,
        batch_timeout_ms=args.batch_timeout_ms,
        slo_ms=args.slo_ms,
        bitexact=args.bitexact,
        compile=args.compile,
        int8=args.int8,
        jobs=_effective_jobs(args) or 1,
        cache_dir=args.cache_dir,
        plan_cache_cap=args.plan_cache_cap,
        sparsity=args.sparsity,
        pack_gamma=args.pack_gamma,
        array=_array_from_args(args),
        preload=keys,
        require_warmup=getattr(args, "require_warmup", False),
        resilience=args.resilience,
        telemetry=args.telemetry,
        snapshot_interval_s=args.snapshot_interval,
        metrics_port=args.metrics_port,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import InferenceServer, serve_tcp

    keys = _serve_keys(args)
    config = _serve_config(args, keys)

    async def run() -> int:
        server = InferenceServer(config)
        await server.start()
        tcp = await serve_tcp(server, args.host, args.port)
        bound = tcp.sockets[0].getsockname()[1] if tcp.sockets else args.port
        print(f"serving {len(keys)} model(s) on {args.host}:{bound} "
              f"(engine={config.engine}, workers={config.workers}, "
              f"max_batch={config.max_batch}, slo={config.slo_ms:.0f}ms)")
        for key in keys:
            print(f"  - {key.canonical()}")
        if server.metrics_port is not None:
            print(f"metrics exposition on "
                  f"http://{args.host}:{server.metrics_port}/metrics "
                  f"(watch live: repro top --port {bound})")
        try:
            if args.duration and args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()  # until interrupted
        finally:
            tcp.close()
            await tcp.wait_closed()
            await server.stop()
            stats = server.stats()
            print(f"served: ok={stats['requests_ok']} "
                  f"shed={stats['requests_shed']} "
                  f"expired={stats['requests_expired']} "
                  f"errors={stats['requests_error']} "
                  f"batches={stats['batches']}")
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def _parse_ramp(text: str):
    """``start:end:steps`` → the WorkloadSpec ramp tuple."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"--ramp wants START:END:STEPS (e.g. 20:200:5), got {text!r}")
    return (float(parts[0]), float(parts[1]), int(parts[2]))


def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio

    from .serve import InferenceServer, WorkloadSpec, run_workload

    keys = _serve_keys(args)
    ramp = _parse_ramp(args.ramp) if args.ramp else None
    spec = WorkloadSpec(
        keys=keys,
        requests=args.requests,
        mode="open" if ramp else args.mode,  # ramps are open-loop
        clients=args.clients,
        rate=args.rate,
        slo_ms=None,  # server default (--slo-ms) applies
        seed=args.workload_seed,
        ramp=ramp,
    )

    if args.chaos or args.gray:
        if args.connect:
            print("--chaos/--gray run their own in-process servers; "
                  "drop --connect", file=sys.stderr)
            return 2
        p99_bound = (args.chaos_p99_ms if args.chaos_p99_ms is not None
                     else 2.0 * args.slo_ms)
        from dataclasses import replace

        from .fleet.chaos import GRAY, KILL, SERVE, run_drill

        if args.gray:
            scenario = replace(GRAY, replicas=args.fleet or GRAY.replicas)
        elif args.fleet:
            scenario = replace(KILL, replicas=args.fleet)
        else:
            scenario = SERVE
        chaos = asyncio.run(run_drill(
            scenario, spec, config=_serve_config(args, keys),
            fault_seed=args.chaos_seed, max_p99_ms=p99_bound,
        ))
        print(chaos.render())
        if args.check:
            failures = chaos.check()
            if failures:
                print("chaos check FAILED: " + "; ".join(failures),
                      file=sys.stderr)
                return 1
            print("chaos check ok: all resilience bounds held")
        return 0

    async def run() -> "object":
        if args.connect:
            from .serve import RemoteClient

            host, _, port = args.connect.rpartition(":")
            client = RemoteClient(host or "127.0.0.1", int(port))
            await client.connect()
            try:
                return await run_workload(client.submit, spec)
            finally:
                await client.close()
        if args.fleet:
            # An in-process fleet: N replicas behind a router, every
            # request crossing real loopback sockets through both hops.
            from .fleet import FleetRouter, FleetSupervisor, RouterConfig
            from .serve import RemoteClient

            supervisor = FleetSupervisor(
                base_config=_serve_config(args, keys), mode="inproc")
            endpoints = [await supervisor.spawn()
                         for _ in range(args.fleet)]
            router = FleetRouter(endpoints,
                                 RouterConfig(seed=args.workload_seed))
            await router.start()
            client = RemoteClient("127.0.0.1", router.port)
            try:
                await client.connect()
                return await run_workload(client.submit, spec)
            finally:
                await client.close()
                await router.stop()
                await supervisor.stop()
        server = InferenceServer(_serve_config(args, keys))
        async with server:
            report = await run_workload(server.submit, spec)
            return report.attach_alerts(server.alerts())

    report = asyncio.run(run())
    print(report.render())
    if args.check:
        problems = []
        if report.errors:
            problems.append(f"{report.errors} request(s) errored")
        if report.ok == 0:
            problems.append("no request completed")
        if report.ok and report.p50_ms <= 0:
            problems.append("SLO accounting missing (p50 is zero)")
        if problems:
            print("loadgen check FAILED: " + "; ".join(problems),
                  file=sys.stderr)
            return 1
        print("loadgen check ok: zero errors, SLO accounting present")
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.top import run_top

    ports = None
    if args.ports:
        ports = [int(p) for p in args.ports.split(",") if p.strip()]
    try:
        rendered = asyncio.run(run_top(
            host=args.host,
            port=args.port,
            interval_s=args.interval,
            frames=args.frames,
            ports=ports,
            fleet=args.fleet,
        ))
    except KeyboardInterrupt:
        return 0
    if args.frames and rendered < args.frames:
        print(f"top: rendered {rendered}/{args.frames} frames "
              f"(server unreachable?)", file=sys.stderr)
        return 1
    return 0


def _replica_serve_argv(args: argparse.Namespace) -> List[str]:
    """The ``repro serve`` argv tail replicating this command's knobs.

    Every knob that shapes a replica's :class:`ServeConfig` is forwarded,
    so a process replica serves and costs exactly like an in-process one.
    Left out: ``--metrics-port`` (per replica) and ``--require-warmup``
    (the supervisor appends it to warm spawns).
    """
    argv: List[str] = list(args.models or [])
    if args.net:
        argv += ["--net", args.net]
    if args.variant is not None:
        argv += ["--variant", args.variant]
    argv += [
        "--resolution", str(args.resolution), "--seed", str(args.seed),
        "--engine", args.engine, "--workers", str(args.workers),
        "--max-batch", str(args.max_batch),
        "--max-queue", str(args.max_queue),
        "--slo-ms", str(args.slo_ms),
        "--batch-timeout-ms", str(args.batch_timeout_ms),
        "--snapshot-interval", str(args.snapshot_interval),
        "--array", str(args.array), "--dataflow", args.dataflow,
        "--datawidth", str(args.datawidth),
        "--pack-gamma", str(args.pack_gamma),
        "--quiet",
    ]
    if args.pipelined:
        argv.append("--pipelined")
    jobs = _effective_jobs(args)
    if jobs is not None:
        argv += ["--jobs", str(jobs)]
    if args.cache_dir is not None:
        argv += ["--cache-dir", args.cache_dir]
    if args.int8:
        argv.append("--int8")
    if not args.compile:
        argv.append("--no-compile")
    if not args.bitexact:
        argv.append("--no-bitexact")
    if not args.resilience:
        argv.append("--no-resilience")
    if not args.telemetry:
        argv.append("--no-telemetry")
    if args.plan_cache_cap is not None:
        argv += ["--plan-cache-cap", str(args.plan_cache_cap)]
    if args.sparsity is not None:
        argv += ["--sparsity", str(args.sparsity)]
    return argv


def cmd_fleet(args: argparse.Namespace) -> int:
    import asyncio

    from .fleet import (
        Autoscaler,
        AutoscalerPolicy,
        FleetRouter,
        FleetSupervisor,
        RouterConfig,
        price_capacity_qps,
    )

    keys = _serve_keys(args)
    config = _serve_config(args, keys)

    async def run() -> int:
        supervisor = FleetSupervisor(
            base_config=config,
            mode=args.replica_mode,
            serve_argv=_replica_serve_argv(args),
        )
        router = FleetRouter([], RouterConfig(seed=args.seed))
        autoscaler = None
        try:
            for _ in range(args.replicas):
                router.add_replica(await supervisor.spawn())
            await router.start(args.host, args.port)
            print(f"fleet router on {args.host}:{router.port} — "
                  f"{len(router.links)} replica(s), mode={args.replica_mode}")
            for link in router.links.values():
                print(f"  - {link.replica_id} @ {link.endpoint.address()}")
            if args.autoscale:
                # Price one replica on the first served model: the cost
                # model's analytical estimate needs the built network.
                from .serve import BatchCostModel, ModelRegistry

                model = ModelRegistry().get(keys[0])
                capacity = price_capacity_qps(
                    BatchCostModel(array=config.array,
                                   cache_dir=config.cache_dir),
                    model, config.workers, config.max_batch,
                )
                policy = AutoscalerPolicy(min_replicas=args.min_replicas,
                                          max_replicas=args.max_replicas)
                autoscaler = Autoscaler(router, supervisor,
                                        capacity_qps=capacity,
                                        policy=policy).start()
                print(f"autoscaler on: {capacity:.1f} req/s priced per "
                      f"replica, {args.min_replicas}..{args.max_replicas} "
                      f"replicas")
            print(f"watch live: repro top --port {router.port} --fleet")
            if args.duration and args.duration > 0:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()  # until interrupted
        finally:
            if autoscaler is not None:
                await autoscaler.stop()
            view = router.fleet_view()
            await router.stop()
            await supervisor.stop()
            answered = sum(r["answered"] for r in view["replicas"])
            sheds = sum(r["sheds"] for r in view["replicas"])
            print(f"fleet served: answered={answered} sheds={sheds} "
                  f"replicas={view['total']}")
        return 0

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FuSeConv (DATE 2021) reproduction toolkit",
    )
    parser.add_argument("--version", action="version",
                        version=obs.version_string())
    common = _obs_options()
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("models", help="list available models", parents=[common])
    p.set_defaults(fn=cmd_models)

    p = sub.add_parser("summary", help="print a model's layer table",
                       parents=[common])
    _add_model_argument(p)
    p.add_argument("--resolution", type=int, default=224)
    _add_variant_option(p)
    p.add_argument("--dot", metavar="FILE",
                   help="write a Graphviz DOT graph instead of the table")
    p.set_defaults(fn=cmd_summary)

    p = sub.add_parser("latency", help="estimate latency and speed-ups",
                       parents=[common])
    _add_model_argument(p)
    p.add_argument("--resolution", type=int, default=224)
    _add_variant_option(p)
    _add_array_options(p)
    _add_parallel_options(p)
    p.set_defaults(fn=cmd_latency)

    p = sub.add_parser("table1", help="regenerate Table I", parents=[common])
    _add_parallel_options(p)
    p.set_defaults(fn=cmd_table1)

    p = sub.add_parser(
        "sparsity",
        help="sparsity x column-combining sweep "
             "(FuSe variant x sparsity x array size)",
        parents=[common],
    )
    _add_model_argument(p)
    p.add_argument("--resolution", type=int, default=32)
    p.add_argument("--sparsities", default="0.5,0.75,0.9", metavar="LIST",
                   help="comma-separated magnitude-prune targets "
                        "(default 0.5,0.75,0.9)")
    p.add_argument("--gammas", default="8", metavar="LIST",
                   help="comma-separated column-combining group limits "
                        "(default 8)")
    p.add_argument("--sizes", default="32,64", metavar="LIST",
                   help="comma-separated square array sizes (default 32,64)")
    p.add_argument("--seed", type=int, default=0,
                   help="deterministic weight seed (default 0)")
    _add_parallel_options(p)
    p.set_defaults(fn=cmd_sparsity)

    p = sub.add_parser(
        "simulate",
        help="run real values through the functional PE-grid simulator",
        parents=[common],
    )
    _add_model_argument(p)
    p.add_argument("--resolution", type=int, default=96)
    _add_variant_option(p)
    _add_array_options(p)
    _add_parallel_options(p)
    p.add_argument("--engine", choices=ENGINES, default="vector",
                   help="simulator engine (default vector; reference = "
                        "scalar per-cycle stepper)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for weights and the input tensor")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("ria", help="RIA classification of an algorithm",
                       parents=[common])
    p.add_argument("algorithm", nargs="?")
    p.set_defaults(fn=cmd_ria)

    p = sub.add_parser("overhead", help="broadcast-link area/power overhead",
                       parents=[common])
    p.add_argument("--size", type=int, default=32)
    p.add_argument("--datawidth", type=int, choices=(8, 16), default=16,
                   help="PE datapath width in bits (default 16 = FP16)")
    p.set_defaults(fn=cmd_overhead)

    for cmd, fn, help_text in (
        ("traffic", cmd_traffic, "SRAM/DRAM traffic of a model"),
        ("buffers", cmd_buffers, "minimum stall-free SRAM buffer sizes"),
        ("energy", cmd_energy, "energy per inference"),
    ):
        p = sub.add_parser(cmd, help=help_text, parents=[common])
        _add_model_argument(p)
        p.add_argument("--resolution", type=int, default=224)
        _add_variant_option(p)
        _add_array_options(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("timeline", help="Gantt view of array occupation",
                       parents=[common])
    _add_model_argument(p)
    p.add_argument("--resolution", type=int, default=224)
    _add_variant_option(p)
    p.add_argument("--top", type=int, default=20,
                   help="show only the N longest layers (0 = all)")
    _add_array_options(p)
    p.set_defaults(fn=cmd_timeline)

    p = sub.add_parser(
        "compile-stats",
        help="compile an inference plan and report fusion/arena statistics",
        parents=[common],
    )
    _add_model_argument(p)
    p.add_argument("--resolution", type=int, default=32)
    _add_variant_option(p)
    p.add_argument("--batch", type=int, default=8,
                   help="batch size the plan is compiled for (default 8)")
    p.add_argument("--seed", type=int, default=0,
                   help="weight seed")
    p.add_argument("--int8", action="store_true",
                   help="compile the int8 quantized plan "
                        "(integer GEMMs; see docs/runtime.md)")
    p.add_argument("--exact", action="store_true",
                   help="bit-exact preset: no folding/fusion "
                        "(output bit-identical to the eager forward)")
    p.add_argument("--sparsity", type=float, default=None, metavar="F",
                   help="magnitude-prune to this fraction and column-"
                        "combine (composes with --int8; see docs/runtime.md)")
    p.add_argument("--gamma", type=int, default=8,
                   help="column-combining group-size limit (default 8; "
                        "1 = identity packing)")
    p.add_argument("--passes", action="store_true",
                   help="print the per-pass pipeline table (timing, params "
                        "removed, columns combined)")
    p.set_defaults(fn=cmd_compile_stats)

    p = sub.add_parser("nos", help="per-layer operator search", parents=[common])
    _add_model_argument(p)
    p.add_argument("--resolution", type=int, default=224)
    p.add_argument("--budget", type=int, default=None,
                   help="latency budget in cycles for the searched layers")
    _add_array_options(p)
    p.set_defaults(fn=cmd_nos)

    p = sub.add_parser(
        "serve",
        help="async dynamic-batching inference server (JSON-lines TCP)",
        parents=[common],
    )
    _add_serve_options(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8707,
                   help="TCP port (0 = ephemeral; default 8707)")
    p.add_argument("--duration", type=float, default=0.0,
                   help="seconds to serve (0 = until Ctrl-C)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="deterministic load generation against a serving instance",
        parents=[common],
    )
    _add_serve_options(p)
    p.add_argument("--requests", type=int, default=500,
                   help="total requests to issue (default 500)")
    p.add_argument("--mode", choices=("closed", "open"), default="closed",
                   help="closed loop (concurrent clients) or open loop "
                        "(Poisson arrivals; exercises shedding)")
    p.add_argument("--clients", type=int, default=8,
                   help="closed-loop virtual users (default 8)")
    p.add_argument("--rate", type=float, default=50.0,
                   help="open-loop arrival rate in req/s (default 50)")
    p.add_argument("--workload-seed", type=int, default=0,
                   help="seed of the deterministic request stream")
    p.add_argument("--connect", metavar="HOST:PORT", default=None,
                   help="target a running 'repro serve' instead of an "
                        "in-process server")
    p.add_argument("--check", action="store_true",
                   help="exit non-zero unless zero errors and SLO "
                        "accounting present (smoke gate)")
    p.add_argument("--chaos", action="store_true",
                   help="drive a seeded fault schedule (repro.faults) "
                        "against an in-process server and assert the "
                        "resilience bounds (see docs/robustness.md)")
    p.add_argument("--chaos-seed", type=int, default=None,
                   help="fault-schedule seed (default: --workload-seed)")
    p.add_argument("--chaos-p99-ms", type=float, default=None,
                   help="client wall p99 cap for the --chaos/--gray "
                        "drills (default: 2 x --slo-ms)")
    p.add_argument("--gray", action="store_true",
                   help="gray-failure drill: stall one replica's forward "
                        "hop 250 ms and assert hedging + slow-detection "
                        "hold the client wall p99 at or under half the "
                        "stall (uses --fleet N replicas, default 3; "
                        "see docs/robustness.md)")
    p.add_argument("--ramp", metavar="START:END:STEPS", default=None,
                   help="open-loop stair profile: split the run into STEPS "
                        "slices at rates linspace(START, END) req/s and "
                        "report per-step stats + a saturation estimate "
                        "(implies --mode open)")
    p.add_argument("--fleet", type=int, default=None, metavar="N",
                   help="drive the workload through an in-process fleet of "
                        "N replicas behind a FleetRouter (with --chaos: "
                        "kill a replica mid-run and assert the fleet "
                        "bounds; see docs/fleet.md)")
    p.set_defaults(fn=cmd_loadgen)

    p = sub.add_parser(
        "fleet",
        help="replica fleet behind a consistent-hash router "
             "(see docs/fleet.md)",
        parents=[common],
    )
    _add_serve_options(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8710,
                   help="router TCP port (0 = ephemeral; default 8710)")
    p.add_argument("--replicas", type=int, default=2,
                   help="replicas to start (default 2)")
    p.add_argument("--replica-mode", choices=("process", "inproc"),
                   default="process",
                   help="replicas as 'repro serve' child processes "
                        "(default; true per-replica telemetry) or "
                        "in-process servers (single process, shared "
                        "metrics registry)")
    p.add_argument("--autoscale", action="store_true",
                   help="add/drain replicas from live load, priced by the "
                        "batch cost model")
    p.add_argument("--min-replicas", type=int, default=1,
                   help="autoscaler floor (default 1)")
    p.add_argument("--max-replicas", type=int, default=8,
                   help="autoscaler ceiling (default 8)")
    p.add_argument("--duration", type=float, default=0.0,
                   help="seconds to serve (0 = until Ctrl-C)")
    p.set_defaults(fn=cmd_fleet)

    p = sub.add_parser(
        "top",
        help="live telemetry view of a running 'repro serve'",
        parents=[common],
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8707,
                   help="serving port to scrape (default 8707)")
    p.add_argument("--interval", type=float, default=1.0,
                   help="seconds between frames (default 1)")
    p.add_argument("--frames", type=int, default=None, metavar="N",
                   help="stop after N frames (default: until Ctrl-C)")
    p.add_argument("--ports", metavar="P1,P2,...", default=None,
                   help="scrape several replicas directly and render one "
                        "fleet frame (per-replica columns + totals)")
    p.add_argument("--fleet", action="store_true",
                   help="treat the target as a fleet router: one scrape "
                        "returns every replica's telemetry, rendered as "
                        "a fleet frame")
    p.set_defaults(fn=cmd_top)
    return parser


def _export_artifacts(args: argparse.Namespace) -> None:
    """Write the ``--trace-out`` / ``--metrics-out`` sidecars of one run."""
    array = _array_from_args(args) if hasattr(args, "array") else None
    extra = {"command": args.command}
    if args.trace_out:
        obs.write_trace(args.trace_out, array=array, extra=extra)
        log.info("wrote trace", path=args.trace_out,
                 events=len(obs.get_tracer()))
    if args.metrics_out:
        obs.write_metrics(args.metrics_out, array=array, extra=extra)
        log.info("wrote metrics", path=args.metrics_out,
                 series=len(obs.get_registry()))


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    obs.configure_logging(level=args.log_level, quiet=args.quiet)
    tracer = obs.get_tracer()
    if args.trace_out:
        tracer.clear()
        tracer.enable()
    if args.metrics_out:
        # Fresh run scope so the sidecar describes this invocation only.
        obs.get_registry().reset()
    start = time.perf_counter()
    try:
        with tracer.span("cli.command", category="cli", command=args.command):
            status = args.fn(args)
    except BrokenPipeError:
        return 0  # output piped into a pager/head that closed early
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if args.trace_out:
            tracer.disable()
    log.debug("command finished", command=args.command, status=status,
              seconds=f"{time.perf_counter() - start:.3f}")
    try:
        _export_artifacts(args)
    except OSError as exc:
        print(f"error: cannot write export: {exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    raise SystemExit(main())
