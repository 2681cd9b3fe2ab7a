"""Human-readable reports of mapping results.

Besides the machine-readable JSON output of :mod:`repro.io`, users of a
memory mapper usually want to *look* at a mapping: which structure went
where, how full every physical bank instance is, and how the cost breaks
down.  This module renders those views as plain text:

* :func:`render_assignment` — the global type assignment grouped by bank
  type, with per-type port and capacity utilisation,
* :func:`render_memory_map` — one line per used bank instance showing an
  occupancy bar and the fragments (structure, configuration, base address)
  placed on it, and
* :func:`render_full_report` — both of the above plus the cost breakdown,
  which is what the command-line interface prints.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional

from ..arch.board import Board
from ..design.design import Design
from .mapping import DetailedMapping, GlobalMapping, MappingResult
from .preprocess import Preprocessor

__all__ = ["render_assignment", "render_memory_map", "render_full_report"]


def render_assignment(
    design: Design,
    board: Board,
    mapping: GlobalMapping,
    preprocessor: Optional[Preprocessor] = None,
) -> str:
    """Render the global assignment with per-type utilisation figures."""
    preprocessor = preprocessor or Preprocessor(design, board)
    lines = [f"Global assignment of {design.name!r} onto {board.name!r}:"]
    grouped = mapping.grouped_by_type()
    for bank in board.bank_types:
        members = sorted(grouped.get(bank.name, []))
        used_ports = 0
        used_bits = 0
        for name in members:
            d_index = design.index_of(name)
            t_index = board.type_index(bank.name)
            used_ports += int(preprocessor.cp[d_index, t_index])
            used_bits += int(
                preprocessor.cw[d_index, t_index] * preprocessor.cd[d_index, t_index]
            )
        port_pct = 100.0 * used_ports / bank.total_ports if bank.total_ports else 0.0
        bits_pct = (
            100.0 * used_bits / bank.total_capacity_bits
            if bank.total_capacity_bits
            else 0.0
        )
        lines.append(
            f"  {bank.name:24s} {len(members):3d} structures   "
            f"ports {used_ports}/{bank.total_ports} ({port_pct:.0f}%)   "
            f"capacity {used_bits}/{bank.total_capacity_bits} bits ({bits_pct:.0f}%)"
        )
        for name in members:
            ds = design.by_name(name)
            lines.append(f"      - {name} ({ds.depth}x{ds.width})")
    return "\n".join(lines)


def _occupancy_bar(used_bits: int, capacity_bits: int, width: int = 24) -> str:
    if capacity_bits <= 0:
        return "[" + " " * width + "]"
    filled = int(round(width * min(1.0, used_bits / capacity_bits)))
    return "[" + "#" * filled + "." * (width - filled) + "]"


def render_memory_map(
    board: Board,
    detailed: DetailedMapping,
    max_instances_per_type: int = 64,
) -> str:
    """Render per-instance occupancy of every bank instance that is used."""
    lines = [f"Memory map of {detailed.design_name!r} on {detailed.board_name!r}:"]
    by_instance: Dict[str, Dict[int, List]] = defaultdict(lambda: defaultdict(list))
    for placement in detailed.placements:
        by_instance[placement.bank_type][placement.instance].append(placement)

    for bank in board.bank_types:
        instances = by_instance.get(bank.name)
        if not instances:
            continue
        lines.append(
            f"  {bank.name} ({bank.num_instances} instances x {bank.capacity_bits} bits, "
            f"{bank.num_ports} ports):"
        )
        shown = 0
        for index in sorted(instances):
            if shown >= max_instances_per_type:
                lines.append(
                    f"    ... {len(instances) - shown} more instances not shown"
                )
                break
            placements = instances[index]
            used_bits = sum(p.fragment.allocated_bits for p in placements)
            used_ports = sum(len(p.ports) for p in placements)
            bar = _occupancy_bar(used_bits, bank.capacity_bits)
            lines.append(
                f"    #{index:<4d} {bar} {used_bits:>8d} bits, "
                f"{used_ports}/{bank.num_ports} ports"
            )
            for placement in sorted(placements, key=lambda p: p.base_word):
                fragment = placement.fragment
                ports = ",".join(str(p) for p in placement.ports)
                lines.append(
                    f"           {fragment.structure:20s} {str(fragment.config):>8s} "
                    f"words {placement.base_word}..{placement.end_word - 1} "
                    f"ports[{ports}] ({fragment.region})"
                )
            shown += 1
    lines.append(
        f"  total: {detailed.num_fragments} fragments on "
        f"{detailed.instances_used()} instances"
    )
    return "\n".join(lines)


def render_full_report(result: MappingResult) -> str:
    """The complete plain-text report the CLI prints after a mapping run."""
    cost = result.cost
    header = [
        f"=== Memory mapping report: {result.design.name!r} on {result.board.name!r} ===",
        f"solver status     : {result.global_mapping.solver_status}",
        f"weighted objective: {cost.weighted_total:.4f}",
        f"  latency cost    : {cost.latency:.1f}",
        f"  pin-delay cost  : {cost.pin_delay:.1f}",
        f"  pin-I/O cost    : {cost.pin_io:.1f}",
        f"global solve time : {result.global_time:.3f}s"
        + (f" (+{result.retries} retries)" if result.retries else ""),
        f"detailed map time : {result.detailed_time:.3f}s",
    ]
    stats = result.solve_stats
    if stats and stats.get("mode") == "fast":
        gap = stats.get("gap")
        header.insert(
            2,
            "mode              : fast (certified gap "
            + (f"{float(gap) * 100.0:.2f}%" if isinstance(gap, (int, float)) else "n/a")
            + ")",
        )
    if stats:
        header.append(
            "solver work       : {lp} LP solves / {nodes} nodes across {solves} "
            "global solve(s)".format(
                lp=stats.get("lp_solves", 0),
                nodes=stats.get("nodes_explored", 0),
                solves=stats.get("global_solves", 0),
            )
        )
        header.append(
            "presolve          : dropped {rows} rows, fixed {cols} columns".format(
                rows=stats.get("presolve_rows_dropped", 0),
                cols=stats.get("presolve_cols_fixed", 0),
            )
        )
        if stats.get("basis_reuses"):
            header.append(
                "basis reuse       : {warm} warm LP re-solves from {reuses} "
                "inherited bases ({refac} refactorizations)".format(
                    warm=stats.get("warm_lp_solves", 0),
                    reuses=stats.get("basis_reuses", 0),
                    refac=stats.get("refactorizations", 0),
                )
            )
    header.append("")
    body = [
        render_assignment(result.design, result.board, result.global_mapping),
        "",
        render_memory_map(result.board, result.detailed_mapping),
    ]
    return "\n".join(header + body)
