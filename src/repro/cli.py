"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro fig16            # scalability comparison
    python -m repro fig17            # utilization breakdown
    python -m repro fig18            # communication intensity
    python -m repro fig19 --steps 200
    python -m repro table1           # resource utilization
    python -m repro ablations        # all eight ablation studies
    python -m repro scaling          # rate vs. FPGA count
    python -m repro sensitivity      # calibrated-constant sensitivity
    python -m repro acceptance       # machine-vs-reference matrix
    python -m repro faults --json benchmarks/results/FAULTS_sweep.json
    python -m repro recover --json benchmarks/results/FAULTS_nodes.json
    python -m repro rescale --json benchmarks/results/FAULTS_rescale.json
    python -m repro jobs --chaos     # job-service containment soak
    python -m repro batch --smoke    # fused K-system batch rates
    python -m repro profile --json BENCH_machine.json  # phase breakdown
    python -m repro bench --baseline benchmarks/results/BENCH_gate.json
    python -m repro info             # design-point summary table

Each command prints the same text table the corresponding benchmark
saves under ``benchmarks/results/`` and exits 0 on success.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.core.config import all_paper_configs
from repro.core.resources import estimate_resources
from repro.harness.ablations import (
    format_cellsize,
    format_cooldown,
    format_filter_sweep,
    format_interp_sweep,
    format_latency_sweep,
    format_precision_sweep,
    format_sync_ablation,
    format_topology,
    run_cellsize_analysis,
    run_cooldown_ablation,
    run_filter_sweep,
    run_interp_sweep,
    run_latency_sweep,
    run_precision_sweep,
    run_sync_ablation,
    run_topology_comparison,
)
from repro.harness.sweeps import (
    format_fpga_scaling,
    format_sensitivity,
    run_fpga_scaling,
    run_sensitivity,
)
from repro.harness.experiments import (
    format_fig16,
    format_fig17,
    format_fig18,
    format_fig19,
    format_table1,
    run_fig16,
    run_fig17,
    run_fig18,
    run_fig19,
    run_table1,
)
from repro.harness.report import format_table


def _cmd_fig16(args) -> str:
    return format_fig16(run_fig16(seed=args.seed))


def _cmd_fig17(args) -> str:
    return format_fig17(run_fig17(seed=args.seed))


def _cmd_fig18(args) -> str:
    return format_fig18(run_fig18(seed=args.seed))


def _cmd_fig19(args) -> str:
    return format_fig19(
        run_fig19(
            n_steps=args.steps,
            record_every=max(1, args.steps // 10),
            seed=args.seed,
        )
    )


def _cmd_table1(args) -> str:
    return format_table1(run_table1())


def _cmd_ablations(args) -> str:
    parts = [
        format_sync_ablation(run_sync_ablation()),
        format_filter_sweep(run_filter_sweep(seed=args.seed)),
        format_interp_sweep(run_interp_sweep()),
        format_cellsize(run_cellsize_analysis()),
        format_topology(run_topology_comparison()),
        format_cooldown(run_cooldown_ablation()),
        format_precision_sweep(run_precision_sweep(seed=args.seed)),
        format_latency_sweep(run_latency_sweep(seed=args.seed)),
    ]
    return "\n\n".join(parts)


def _cmd_acceptance(args) -> str:
    from repro.harness.acceptance import format_acceptance, run_acceptance

    return format_acceptance(run_acceptance())


def _cmd_faults(args) -> str:
    from repro.harness.faultsweep import format_fault_sweep, run_fault_sweep

    result = run_fault_sweep(seed=args.seed)
    if args.json:
        import os

        dirname = os.path.dirname(args.json)
        if dirname:
            os.makedirs(dirname, exist_ok=True)
        with open(args.json, "w") as fh:
            fh.write(result.to_json() + "\n")
    return format_fault_sweep(result)


def _write_json(doc, path: str) -> None:
    dirname = os.path.dirname(path)
    if dirname:
        os.makedirs(dirname, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _or(value, default):
    """An option's value, or its subcommand's default when unset."""
    return default if value is None else value


def _cmd_batch(args) -> str:
    from repro.harness.jobs import format_batch, run_batch_bench

    doc = run_batch_bench(
        force_impl=args.force_impl,
        k_systems=_or(args.batch_k, 256),
        steps=_or(args.batch_steps, 30),
        seed=args.seed,
        smoke=args.smoke,
    )
    if args.json:
        _write_json(doc, args.json)
    return format_batch(doc)


def _cmd_profile(args) -> str:
    from repro.harness.profiling import format_profile, run_profile

    doc = run_profile(smoke=args.smoke, force_impl=args.force_impl)
    if args.json:
        _write_json(doc, args.json)
    return format_profile(doc)


def _cmd_bench(args):
    from repro.harness.bench import check_gate, format_bench, run_bench

    # Read the baseline before measuring: a missing one fails at once,
    # and --json may name the same file to refresh it.
    baseline = None
    if args.baseline:
        if not os.path.exists(args.baseline):
            return f"perf gate: no baseline at {args.baseline}", 1
        with open(args.baseline) as fh:
            baseline = json.load(fh)
    doc = run_bench()
    if args.json:
        _write_json(doc, args.json)
    text = format_bench(doc)
    if baseline is None:
        return text
    failures = check_gate(baseline, doc)
    hosts = (
        f"baseline cpu_count={baseline.get('cpu_count')}, "
        f"this host {doc['cpu_count']}"
    )
    if failures:
        text += f"\nPERF GATE FAILED vs {args.baseline} ({hosts}):\n"
        return text + "\n".join("  " + f for f in failures), 1
    return text + (
        f"\nperf gate vs {args.baseline}: OK, {len(doc['metrics'])} "
        f"medians within {100 * doc['threshold']:.0f}% ({hosts})"
    )


def _cmd_recover(args):
    from repro.harness.faultsweep import (
        format_node_soak,
        format_recovery_demo,
        run_node_soak,
        run_recovery_demo,
    )

    demo = run_recovery_demo(node=args.node, iteration=args.iteration,
                             seed=args.seed)
    soak = run_node_soak(n_steps=4, seeds=(args.seed, args.seed + 1))
    if args.json:
        _write_json({**json.loads(soak.to_json()), "demo": demo}, args.json)
    text = format_recovery_demo(demo) + "\n\n" + format_node_soak(soak)
    if not demo["bitwise_identical"] or soak.unrecovered:
        text += (
            f"\nRECOVERY FAILED: demo bitwise={demo['bitwise_identical']}, "
            f"soak unrecovered={soak.unrecovered}"
        )
        return text, 1
    return text


def _cmd_rescale(args):
    from repro.harness.faultsweep import (
        format_rescale_demo,
        format_rescale_soak,
        run_rescale_demo,
        run_rescale_soak,
    )

    demo = run_rescale_demo(seed=args.seed)
    soak = run_rescale_soak(seeds=(args.seed, args.seed + 1, args.seed + 2))
    if args.json:
        _write_json({**json.loads(soak.to_json()), "demo": demo}, args.json)
    text = format_rescale_demo(demo) + "\n\n" + format_rescale_soak(soak)
    failed = (
        not demo["all_bitwise"]
        or not demo["conservation_ok"]
        or demo["aborted"]
        or soak.unrecovered
    )
    if failed:
        text += (
            f"\nRESCALE FAILED: demo bitwise={demo['all_bitwise']}, "
            f"conservation={demo['conservation_ok']}, "
            f"demo aborts={len(demo['aborted'])}, "
            f"soak unrecovered={soak.unrecovered}"
        )
        return text, 1
    return text


def _cmd_jobs(args):
    from repro.harness.faultsweep import format_job_soak, run_job_soak

    if args.chaos:
        soak = run_job_soak(
            k_jobs=_or(args.batch_k, 64),
            steps=_or(args.batch_steps, 12),
            seed=args.seed,
            force_impl=args.force_impl,
        )
        if args.json:
            dirname = os.path.dirname(args.json)
            if dirname:
                os.makedirs(dirname, exist_ok=True)
            with open(args.json, "w") as fh:
                fh.write(soak.to_json() + "\n")
        text = format_job_soak(soak)
        if soak.unrecovered:
            text += (
                f"\nJOB SOAK FAILED: {soak.unrecovered} job(s) leaked "
                "their blast radius (contamination or unrecovered resume)"
            )
            return text, 1
        return text

    # Plain demo: a small guarded campaign, no chaos.
    from repro.faults.health import GuardConfig
    from repro.harness.jobs import JobQueue, run_jobs
    from repro.md.dataset import build_dataset

    queue = JobQueue()
    k = min(_or(args.batch_k, 16), 16)
    for i in range(k):
        system, grid = build_dataset(
            (3, 3, 3), cutoff=8.5, particles_per_cell=2, seed=args.seed + i
        )
        queue.submit(system, grid, steps=_or(args.batch_steps, 30))
    summary = run_jobs(
        queue, force_impl=args.force_impl, max_systems=8,
        guard=GuardConfig(), chunk_steps=10,
    )
    return (
        f"job service: {summary['jobs_done']}/{k} jobs done in "
        f"{summary['chunks']} chunks on backend {summary['backend']} "
        f"({summary['aggregate_steps_per_s']:.0f} steps/s aggregate); "
        f"quarantined {summary['quarantined']}, retried "
        f"{summary['retries']}.  Run with --chaos for the containment "
        "soak (seeded poisoned jobs + SIGKILL/resume)."
    )


def _cmd_scaling(args) -> str:
    return format_fpga_scaling(run_fpga_scaling(seed=args.seed))


def _cmd_sensitivity(args) -> str:
    return format_sensitivity(run_sensitivity(seed=args.seed))


def _cmd_info(args) -> str:
    rows = []
    for name, cfg in all_paper_configs().items():
        util = estimate_resources(cfg).utilization_percent()
        rows.append(
            [
                name,
                cfg.n_fpgas,
                "x".join(map(str, cfg.local_cells)),
                cfg.pes_per_cbb,
                cfg.n_cells * 64,
                util["lut"],
                util["dsp"],
            ]
        )
    return format_table(
        ["design", "FPGAs", "cells/FPGA", "PEs/cell", "particles", "LUT%", "DSP%"],
        rows,
        precision=0,
        title="FASDA design points (paper Sec. 5)",
    )


_COMMANDS = {
    "fig16": _cmd_fig16,
    "fig17": _cmd_fig17,
    "fig18": _cmd_fig18,
    "fig19": _cmd_fig19,
    "table1": _cmd_table1,
    "ablations": _cmd_ablations,
    "batch": _cmd_batch,
    "profile": _cmd_profile,
    "bench": _cmd_bench,
    "jobs": _cmd_jobs,
    "faults": _cmd_faults,
    "recover": _cmd_recover,
    "rescale": _cmd_rescale,
    "acceptance": _cmd_acceptance,
    "scaling": _cmd_scaling,
    "sensitivity": _cmd_sensitivity,
    "info": _cmd_info,
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FASDA reproduction: regenerate paper tables and figures.",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--seed", type=int, default=2023, help="dataset seed")
    parser.add_argument(
        "--steps", type=int, default=200, help="MD steps for fig19"
    )
    parser.add_argument(
        "--output", type=str, default=None, help="also write the table to a file"
    )
    parser.add_argument(
        "--json",
        type=str,
        default=None,
        help="also write the result as JSON here (most commands)",
    )
    parser.add_argument(
        "--baseline",
        type=str,
        default=None,
        help=(
            "for `bench`: a `bench --json` document to gate against; "
            "exits 1 when a median drops more than 30%%, a metric is "
            "missing or extra, its backend or config differs, or its "
            "backend is unavailable"
        ),
    )
    parser.add_argument(
        "--force-impl",
        type=str,
        default=None,
        help=(
            "for `batch`, `profile` and `jobs`: force backend "
            "(numpy/cext; default numpy; an unavailable "
            "optional backend falls back to numpy)"
        ),
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=(
            "for `batch`: quick run (K=64, smallest system size only, "
            "20 steps); for `profile`: the 1728-particle box"
        ),
    )
    parser.add_argument(
        "--batch-k",
        type=int,
        default=None,
        help=(
            "for `batch`: systems per batch (default 256, smoke caps "
            "this at 64); for `jobs`: jobs (default 64 with --chaos, "
            "else 16, at most 16)"
        ),
    )
    parser.add_argument(
        "--batch-steps",
        type=int,
        default=None,
        help=(
            "for `batch`: timed MD steps per measurement point (default "
            "30); for `jobs`: steps per job (default 12 with --chaos, "
            "else 30)"
        ),
    )
    parser.add_argument(
        "--chaos",
        action="store_true",
        help=(
            "for `jobs`: run the containment soak instead of the demo — "
            "seeded poisoned jobs, quarantine/retry accounting, a "
            "SIGKILL mid-campaign and a journal resume; exits 1 if any "
            "job's blast radius leaked (--batch-k/--batch-steps resize "
            "it, --json writes the FAULTS_jobs.json artifact)"
        ),
    )
    parser.add_argument(
        "--node",
        type=int,
        default=1,
        help="for `recover`: node to kill in the recovery demo",
    )
    parser.add_argument(
        "--iteration",
        type=int,
        default=3,
        help="for `recover`: iteration at which the node crashes",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code.

    Commands normally return the table text; a command may instead
    return ``(text, exit_code)`` — the perf gate uses this to fail the
    process while still printing its findings.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.baseline and args.command != "bench":
        # Only `bench` gates; a baseline given elsewhere would gate nothing.
        parser.error(f"--baseline is for `bench`, not `{args.command}`")
    out = _COMMANDS[args.command](args)
    text, code = out if isinstance(out, tuple) else (out, 0)
    print(text)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
