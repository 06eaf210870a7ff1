"""Ablation studies for the design choices the paper argues for.

Each ablation isolates one architectural decision and quantifies the
trade-off the paper describes qualitatively:

* **Synchronization** (Sec. 4.4): chained vs. switch-barrier BSP vs.
  host-coordinated BSP under straggler injection.
* **Filters per pipeline** (Sec. 5.3): the paper uses 6 filters to match
  the ~15.5% pair-acceptance rate; the sweep shows throughput saturating
  once the pipeline, not the filter bank, becomes the bottleneck.
* **Interpolation table size** (Sec. 3.4): accuracy vs. BRAM footprint.
* **Cell size** (Sec. 2.2, Fig. 3): cells smaller than R_c multiply the
  neighbor-cell count; larger cells dilute the valid-pair fraction.
* **Topology** (Sec. 4.1): hyper-ring vs. torus vs. switch on link
  count, diameter, and suitability for neighbor-dominated traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.arith.interp import InterpolationTable
from repro.core.config import MachineConfig
from repro.core.cycles import estimate_performance
from repro.core.machine import FasdaMachine
from repro.core.sync import (
    random_straggler_work,
    run_bulk_sync,
    run_chained_sync,
)
from repro.harness.report import format_table
from repro.network.topology import (
    HyperRingTopology,
    SwitchTopology,
    TorusTopology,
)

# ---------------------------------------------------------------------------
# Synchronization ablation
# ---------------------------------------------------------------------------


@dataclass
class SyncAblationRow:
    straggler_probability: float
    chained_cycles_per_iter: float
    bulk_cycles_per_iter: float
    host_cycles_per_iter: float

    @property
    def chained_vs_bulk(self) -> float:
        """Chained sync's speedup over switch-barrier BSP."""
        return self.bulk_cycles_per_iter / self.chained_cycles_per_iter


@dataclass
class SyncAblationResult:
    rows: List[SyncAblationRow]
    work_cycles: float
    n_iterations: int


def run_sync_ablation(
    probabilities: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.4),
    work_cycles: float = 16_000.0,
    slowdown: float = 2.0,
    n_iterations: int = 20,
    link_latency: float = 200.0,
    seed: int = 0,
) -> SyncAblationResult:
    """Chained vs. BSP vs. host-BSP under random transient stragglers.

    ``work_cycles`` defaults to the measured force-phase length of the
    weak-scaling design points; the straggler slowdown models transient
    load imbalance (uneven valid-pair counts, paper Sec. 4.4).
    """
    topo = TorusTopology((2, 2, 2))
    rows = []
    for p in probabilities:
        work = random_straggler_work(work_cycles, slowdown, p, seed=seed)
        chained = run_chained_sync(
            topo, work, n_iterations, link_latency=link_latency
        )
        bulk = run_bulk_sync(
            topo.n_nodes, work, n_iterations, barrier_latency=link_latency
        )
        host = run_bulk_sync(
            topo.n_nodes, work, n_iterations, host_coordinated=True
        )
        rows.append(
            SyncAblationRow(
                p,
                chained.mean_iteration_time(),
                bulk.mean_iteration_time(),
                host.mean_iteration_time(),
            )
        )
    return SyncAblationResult(rows, work_cycles, n_iterations)


def format_sync_ablation(result: SyncAblationResult) -> str:
    rows = [
        [
            f"{r.straggler_probability:.0%}",
            r.chained_cycles_per_iter,
            r.bulk_cycles_per_iter,
            r.host_cycles_per_iter,
            r.chained_vs_bulk,
        ]
        for r in result.rows
    ]
    return format_table(
        ["straggle p", "chained", "BSP(switch)", "BSP(host)", "chained/BSP gain"],
        rows,
        precision=1,
        title="Sync ablation — cycles per iteration (8-node torus)",
    )


# ---------------------------------------------------------------------------
# Filters-per-pipeline sweep
# ---------------------------------------------------------------------------


@dataclass
class FilterSweepRow:
    filters: int
    rate_us_per_day: float
    filter_hw_utilization: float
    pe_hw_utilization: float
    bound: str


@dataclass
class FilterSweepResult:
    rows: List[FilterSweepRow]


def run_filter_sweep(
    filter_counts: Tuple[int, ...] = (2, 4, 6, 8, 12, 16),
    seed: int = 2023,
) -> FilterSweepResult:
    """Sweep filters/pipeline on the 3x3x3 design point.

    The workload statistics do not depend on the filter count, so one
    machine measurement serves the whole sweep.
    """
    stats = FasdaMachine(MachineConfig((3, 3, 3)), seed=seed).measure_workload()
    rows = []
    for f in filter_counts:
        cfg = MachineConfig((3, 3, 3), filters_per_pipeline=f)
        perf = estimate_performance(cfg, stats)
        rows.append(
            FilterSweepRow(
                f,
                perf.rate_us_per_day,
                perf.utilization["filter"].hardware,
                perf.utilization["pe"].hardware,
                perf.bound,
            )
        )
    return FilterSweepResult(rows)


def format_filter_sweep(result: FilterSweepResult) -> str:
    rows = [
        [r.filters, r.rate_us_per_day, 100 * r.filter_hw_utilization,
         100 * r.pe_hw_utilization, r.bound]
        for r in result.rows
    ]
    return format_table(
        ["filters/pipe", "us/day", "filter hw %", "pe hw %", "bound"],
        rows,
        precision=2,
        title="Filter-count ablation (3x3x3) — paper uses 6",
    )


# ---------------------------------------------------------------------------
# Interpolation table sweep
# ---------------------------------------------------------------------------


@dataclass
class InterpSweepRow:
    n_s: int
    n_b: int
    max_rel_error_r14: float
    max_rel_error_r8: float
    bram_words: int


@dataclass
class InterpSweepResult:
    rows: List[InterpSweepRow]


def run_interp_sweep(
    sizes: Tuple[Tuple[int, int], ...] = (
        (8, 16), (8, 64), (14, 64), (14, 256), (14, 1024), (20, 256)
    ),
) -> InterpSweepResult:
    """Interpolation accuracy vs. table footprint (paper Sec. 3.4)."""
    rows = []
    for n_s, n_b in sizes:
        t14 = InterpolationTable(14, n_s=n_s, n_b=n_b)
        t8 = InterpolationTable(8, n_s=n_s, n_b=n_b)
        rows.append(
            InterpSweepRow(
                n_s,
                n_b,
                t14.max_relative_error(),
                t8.max_relative_error(),
                t14.bram_words + t8.bram_words,
            )
        )
    return InterpSweepResult(rows)


def format_interp_sweep(result: InterpSweepResult) -> str:
    rows = [
        [f"{r.n_s}x{r.n_b}", f"{r.max_rel_error_r14:.2e}",
         f"{r.max_rel_error_r8:.2e}", r.bram_words]
        for r in result.rows
    ]
    return format_table(
        ["sections x bins", "max err r^-14", "max err r^-8", "coeff words"],
        rows,
        title="Interpolation-table ablation (Eq. 8-10)",
    )


# ---------------------------------------------------------------------------
# Cell size analysis (Fig. 3)
# ---------------------------------------------------------------------------


@dataclass
class CellSizeRow:
    size_ratio: float           # cell edge / R_c
    neighbor_cells: int         # cells to pair against (full shell)
    candidate_volume_ratio: float  # candidate volume / cutoff-sphere volume
    valid_fraction: float       # expected filter acceptance


@dataclass
class CellSizeResult:
    rows: List[CellSizeRow]


def run_cellsize_analysis(
    ratios: Tuple[float, ...] = (0.5, 2.0 / 3.0, 1.0, 1.5, 2.0),
) -> CellSizeResult:
    """Quantify Fig. 3: the cell-size trade-off around R_c.

    For cell edge ``a = s * R_c``, pairing must cover all cells within
    ``k = ceil(1/s)`` in each direction: ``(2k+1)**3 - 1`` neighbors.
    The candidate volume is ``((2k+1) * a)**3``; valid pairs fill a
    cutoff sphere of volume ``4/3 pi R_c^3`` (Eq. 3 generalized).
    """
    rows = []
    sphere = 4.0 / 3.0 * np.pi  # R_c = 1
    for s in ratios:
        k = int(np.ceil(1.0 / s - 1e-12))
        n_neighbors = (2 * k + 1) ** 3 - 1
        volume = ((2 * k + 1) * s) ** 3
        rows.append(
            CellSizeRow(
                size_ratio=s,
                neighbor_cells=n_neighbors,
                candidate_volume_ratio=volume / sphere,
                valid_fraction=sphere / volume,
            )
        )
    return CellSizeResult(rows)


def format_cellsize(result: CellSizeResult) -> str:
    rows = [
        [f"{r.size_ratio:.2f}", r.neighbor_cells,
         r.candidate_volume_ratio, 100 * r.valid_fraction]
        for r in result.rows
    ]
    return format_table(
        ["cell/R_c", "neighbor cells", "volume overhead", "valid pairs %"],
        rows,
        precision=2,
        title="Cell-size ablation (Fig. 3; Eq. 3 gives 15.5% at ratio 1)",
    )


# ---------------------------------------------------------------------------
# Inter-FPGA latency sweep — the "tight coupling" thesis quantified
# ---------------------------------------------------------------------------


@dataclass
class LatencyRow:
    latency_cycles: int
    latency_us: float
    rate_us_per_day: float
    sync_share: float  # fraction of the iteration spent in the handshake


@dataclass
class LatencySweepResult:
    rows: List[LatencyRow]

    @property
    def tight_vs_loose(self) -> float:
        """Rate ratio between the tightest and loosest coupling."""
        return self.rows[0].rate_us_per_day / self.rows[-1].rate_us_per_day


def run_latency_sweep(
    latencies_cycles: Tuple[int, ...] = (20, 200, 2_000, 20_000, 200_000),
    seed: int = 2023,
) -> LatencySweepResult:
    """Strong-scaling rate vs inter-FPGA latency (4x4x4-C, 8 nodes).

    The paper's core thesis is that FPGAs couple computation and
    communication tightly — "data transfers, application level to
    application level, take only a few cycles beyond time-of-flight" —
    and that this is what makes strong scaling possible.  This sweep
    prices the alternative: the same design point behind fabrics with
    switch-level (~1 us), datacenter-network (~10-100 us), and
    host-mediated (~1 ms) latencies.  At MD iteration times of tens of
    microseconds, loose coupling erases the accelerator's advantage.
    """
    import dataclasses

    from repro.core.config import strong_scaling_configs

    base = strong_scaling_configs()["4x4x4-C"]
    machine = FasdaMachine(base, seed=seed)
    stats = machine.measure_workload()
    rows = []
    for lat in latencies_cycles:
        cfg = dataclasses.replace(base, inter_fpga_latency_cycles=lat)
        perf = estimate_performance(cfg, stats)
        rows.append(
            LatencyRow(
                latency_cycles=lat,
                latency_us=lat * cfg.cycle_seconds * 1e6,
                rate_us_per_day=perf.rate_us_per_day,
                sync_share=perf.sync_cycles / perf.iteration_cycles,
            )
        )
    return LatencySweepResult(rows)


def format_latency_sweep(result: LatencySweepResult) -> str:
    rows = [
        [f"{r.latency_us:g} us", r.latency_cycles, r.rate_us_per_day,
         f"{100 * r.sync_share:.0f}%"]
        for r in result.rows
    ]
    table = format_table(
        ["one-way latency", "cycles", "us/day", "sync share"],
        rows,
        precision=2,
        title="Inter-FPGA latency sweep (4x4x4-C) — why tight coupling matters",
    )
    return table + (
        f"\ntight (switch) vs loose (host-mediated) coupling: "
        f"{result.tight_vs_loose:.1f}x"
    )


# ---------------------------------------------------------------------------
# Cooldown / packet-loss ablation (Sec. 5.4)
# ---------------------------------------------------------------------------


@dataclass
class CooldownRow:
    cooldown_cycles: int
    loss_rate: float
    peak_buffer_occupancy: int
    peak_gbps: float


@dataclass
class CooldownResult:
    rows: List[CooldownRow]
    n_senders: int
    packets_per_sender: int
    buffer_packets: int


def run_cooldown_ablation(
    cooldowns: Tuple[int, ...] = (1, 2, 4, 8, 16),
    n_senders: int = 7,
    packets_per_sender: int = 200,
    buffer_packets: int = 64,
    clock_hz: float = 200e6,
    packet_bits: int = 512,
) -> CooldownResult:
    """Sweep the transmit cooldown on a synchronized 7-to-1 incast.

    The scenario: all seven neighbors start their position exchange
    toward one node simultaneously — the peak the paper spreads out
    with cooldown counters.  Reports loss rate (switch buffer tail
    drop), peak buffer occupancy, and the per-sender instantaneous rate.
    """
    from repro.network.netsim import incast_loss_rate

    rows = []
    for c in cooldowns:
        loss, peak = incast_loss_rate(
            n_senders=n_senders,
            packets_per_sender=packets_per_sender,
            cooldown_cycles=c,
            buffer_packets=buffer_packets,
        )
        peak_gbps = clock_hz / c * packet_bits / 1e9
        rows.append(CooldownRow(c, loss, peak, peak_gbps))
    return CooldownResult(rows, n_senders, packets_per_sender, buffer_packets)


def format_cooldown(result: CooldownResult) -> str:
    rows = [
        [r.cooldown_cycles, f"{100 * r.loss_rate:.1f}%",
         r.peak_buffer_occupancy, r.peak_gbps]
        for r in result.rows
    ]
    return format_table(
        ["cooldown (cyc)", "packet loss", "peak buffer", "sender peak Gbps"],
        rows,
        precision=1,
        title=(
            f"Cooldown ablation — {result.n_senders}-to-1 incast, "
            f"{result.buffer_packets}-packet port buffer (Sec. 5.4)"
        ),
    )


# ---------------------------------------------------------------------------
# Position precision sweep
# ---------------------------------------------------------------------------


@dataclass
class PrecisionRow:
    frac_bits: int
    position_lsb_angstrom: float
    max_energy_rel_error: float


@dataclass
class PrecisionSweepResult:
    rows: List[PrecisionRow]


def run_precision_sweep(
    frac_bits: Tuple[int, ...] = (6, 10, 14, 23),
    n_steps: int = 30,
    dims: Tuple[int, int, int] = (3, 3, 3),
    particles_per_cell: int = 16,
    seed: int = 2023,
) -> PrecisionSweepResult:
    """Fixed-point fraction width vs. energy fidelity (paper Sec. 4.2).

    The paper motivates fixed-point positions by filter cost; this sweep
    quantifies the fidelity side: how many fraction bits the position
    format needs before quantization stops mattering relative to the
    float32 datapath (Fig. 19's regime).
    """
    from repro.md import ReferenceEngine, build_dataset

    system, grid = build_dataset(
        dims, particles_per_cell=particles_per_cell, seed=seed
    )
    reference = ReferenceEngine(system.copy(), grid, dt_fs=2.0)
    ref_records = reference.run(n_steps, record_every=max(1, n_steps // 6))
    rows = []
    for bits in frac_bits:
        cfg = MachineConfig(dims, frac_bits=bits)
        machine = FasdaMachine(cfg, system=system.copy())
        mac_records = machine.run(n_steps, record_every=max(1, n_steps // 6))
        err = max(
            abs(m.total - r.total) / abs(r.total)
            for m, r in zip(mac_records, ref_records)
        )
        rows.append(
            PrecisionRow(
                frac_bits=bits,
                position_lsb_angstrom=cfg.cutoff * 2.0 ** -bits,
                max_energy_rel_error=err,
            )
        )
    return PrecisionSweepResult(rows)


def format_precision_sweep(result: PrecisionSweepResult) -> str:
    rows = [
        [r.frac_bits, f"{r.position_lsb_angstrom:.2e}",
         f"{r.max_energy_rel_error:.2e}"]
        for r in result.rows
    ]
    return format_table(
        ["frac bits", "position LSB (A)", "max energy rel err"],
        rows,
        title="Position-precision ablation (fixed-point width)",
    )


# ---------------------------------------------------------------------------
# Topology comparison
# ---------------------------------------------------------------------------


@dataclass
class TopologyRow:
    name: str
    n_nodes: int
    links: int
    diameter: int
    avg_distance: float
    neighbor_avg_distance: float  # mean hops between torus-adjacent nodes


@dataclass
class TopologyResult:
    rows: List[TopologyRow]


def run_topology_comparison(fpga_grid: Tuple[int, int, int] = (2, 2, 2)) -> TopologyResult:
    """Compare fabrics for one FPGA grid under FASDA's traffic pattern.

    The figure of merit is the hop distance between *spatially adjacent*
    nodes — the only pairs that exchange significant traffic (Fig. 18(B))
    — rather than all-pairs distance, which is where hyper-rings are
    weak but FASDA doesn't care.
    """
    torus = TorusTopology(fpga_grid)
    n = torus.n_nodes
    # Spatially adjacent node pairs (face neighbors in the torus).
    adjacent = torus.links()
    candidates = {
        "torus(direct)": torus,
        "switch(star)": SwitchTopology(n),
        "hyper-ring(o2)": HyperRingTopology(
            group_size=max(2, fpga_grid[2] * fpga_grid[1]),
            n_groups=max(2, fpga_grid[0]),
            order=2,
        ),
        "ring(o1)": HyperRingTopology(group_size=n, order=1),
    }
    rows = []
    for name, topo in candidates.items():
        nbr_dist = float(
            np.mean([topo.hop_distance(a, b) for a, b in adjacent])
        )
        rows.append(
            TopologyRow(
                name,
                topo.n_nodes,
                len(topo.links()),
                topo.diameter(),
                topo.average_distance(),
                nbr_dist,
            )
        )
    return TopologyResult(rows)


def format_topology(result: TopologyResult) -> str:
    rows = [
        [r.name, r.n_nodes, r.links, r.diameter, r.avg_distance,
         r.neighbor_avg_distance]
        for r in result.rows
    ]
    return format_table(
        ["fabric", "nodes", "links", "diam", "avg dist", "nbr dist"],
        rows,
        precision=2,
        title="Topology ablation (Sec. 4.1) — neighbor traffic dominates",
    )
