"""Per-layer figures from one profiled pass.

A layer is one ``src/repro/<layer>/`` package. Self time is cProfile's
exclusive time (``tottime``) summed per layer. Code outside the package — C
builtins such as ``sorted`` or ``dict.get``, and stdlib or numpy Python code
— is charged to the layer of its direct caller, split by the per-caller
edges pstats records, so the time ``fairshare`` spends in ``sorted`` counts
as ``network`` time. Whatever is left (top-level modules, layers not listed
below, the benchmark's own code) is ``other``.

Counts of work the program keeps no counter for (solves, rebalances,
rendezvous handshakes, event cancels) are profiler call counts of the
function that does that work.
"""

from __future__ import annotations

import os
import pstats
from typing import Optional

#: Layers reported by name; every other time lands in ``other``.
LAYERS = (
    "sim", "mpi", "network", "faults", "machine", "topo", "noise", "relaxed",
    "recovery", "harness", "parallel", "collectives", "trees",
)

#: Call-count metrics: name -> (file suffix, function name).
CALLS = {
    "network.rebalances": ("repro/network/fairshare.py", "_rebalance"),
    "network.solves": ("repro/network/fairshare.py", "maxmin_rates"),
    "network.lookups": ("repro/network/fairshare.py", "_maxmin_cached"),
    "mpi.rendezvous": ("repro/mpi/runtime.py", "_rndv_send_cts"),
    "mpi.isend_calls": ("repro/mpi/runtime.py", "isend"),
    "network.submits": ("repro/network/fairshare.py", "submit"),
    "sim.cancels": ("repro/sim/engine.py", "cancel"),
}


def layer_of(filename: str) -> Optional[str]:
    """``.../repro/network/fairshare.py`` -> ``"network"``; None outside
    the ``repro`` package (builtins, stdlib, numpy, the benchmark)."""
    parts = filename.replace(os.sep, "/").split("/")
    if "repro" not in parts:
        return None
    i = len(parts) - 1 - parts[::-1].index("repro")
    rest = parts[i + 1:]
    if len(rest) < 2:  # a top-level module such as repro/cli.py
        return "other"
    return rest[0] if rest[0] in LAYERS else "other"


def self_times(stats: pstats.Stats) -> dict[str, float]:
    """Exclusive seconds per layer, with non-package time charged to the
    calling layer. The values sum to the total profiled time."""
    out = dict.fromkeys(LAYERS + ("other",), 0.0)
    table = stats.stats  # type: ignore[attr-defined]
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in table.items():
        layer = layer_of(filename)
        if layer is not None:
            out[layer] += tt
            continue
        edge_total = sum(edge[2] for edge in callers.values())
        if not callers or edge_total <= 0.0:
            out["other"] += tt
            continue
        for (caller_file, _l, _n), edge in callers.items():
            share = tt * edge[2] / edge_total
            out[layer_of(caller_file) or "other"] += share
    return out


def call_counts(stats: pstats.Stats) -> dict[str, int]:
    """Total calls of each :data:`CALLS` function."""
    out = dict.fromkeys(CALLS, 0)
    wanted = {
        (suffix, func): name for name, (suffix, func) in CALLS.items()
    }
    table = stats.stats  # type: ignore[attr-defined]
    for (filename, _line, func), (_cc, nc, _tt, _ct, _callers) in table.items():
        path = filename.replace(os.sep, "/")
        for (suffix, want), name in wanted.items():
            if func == want and path.endswith(suffix):
                out[name] += nc
    return out
