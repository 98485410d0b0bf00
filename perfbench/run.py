#!/usr/bin/env python3
"""Repository benchmark: three workloads, checked outputs, one JSON line.

Run from the repository root::

    python3 perfbench/run.py --workload adapt_scale --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs the same untraced passes, then one more set-up and pass under cProfile,
and reports the per-layer metrics. Both print a table, then as the last line
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. README.md in this directory describes the workloads and
metrics.

Everything runs in this one process; nothing is spawned.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Imports and set-ups per run; ``setup_s`` adds their medians.
SETUP_REPS = 5

#: The modules the workloads use; importing them is part of ``setup_s``.
MODULES = (
    "repro", "repro.config", "repro.machine", "repro.mpi",
    "repro.libraries.presets", "repro.harness.runner",
    "repro.harness.profiling", "repro.faults.plan", "repro.parallel",
    "repro.relaxed", "repro.topo",
)

UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "sim_ms": "ms",
    "failed_frac": "ratio",
}


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full", workdir: str = ROOT) -> dict:
    """Run workload ``name`` and return the report (see :func:`main`)."""
    imports = []
    for _ in range(SETUP_REPS):
        # A fresh import each time: drop the package's modules first. Only
        # the last import's modules are used from here on.
        for module in [m for m in sys.modules if m.split(".")[0] == "repro"]:
            del sys.modules[module]
        t0 = time.perf_counter()
        for module in MODULES:
            importlib.import_module(module)
        imports.append(time.perf_counter() - t0)

    from checks import replay
    from layers import call_counts, self_times
    from workloads import WORKLOADS, figure_sweep

    if name == "figure_sweep":
        wl = figure_sweep(seed, size, workdir)
    else:
        wl = WORKLOADS[name](seed, size)
    setups: list[float] = []

    def fresh_setup():
        gc.collect()
        t = time.perf_counter()
        state = wl.setup()
        setups.append(time.perf_counter() - t)
        return state

    def one_pass():
        state = fresh_setup()
        gc.collect()
        t = time.perf_counter()
        cells, _ = wl.run(state)
        return time.perf_counter() - t, cells

    try:
        for _ in range(SETUP_REPS - 1):
            fresh_setup()
        walls: list[float] = []
        passes = []
        deadline = time.perf_counter() + seconds
        while not passes or time.perf_counter() < deadline:
            wall, cells = one_pass()
            walls.append(wall)
            passes.append(cells)
        # Before the traced pass and the replays, which are not the workload.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            from repro.harness.profiling import profile_call

            # Set-up is traced too: machine, topo and trees work happens there.
            gc.collect()
            t = time.perf_counter()
            (traced_cells, traced_extra), profile = profile_call(
                lambda: wl.run(wl.setup()))
            traced_s = time.perf_counter() - t
    finally:
        wl.cleanup()

    cells = passes[0]
    for again in passes[1:]:
        for cell, other in zip(cells, again):
            if other.key() != cell.key():
                cell.checks_failed.append("repeat")
    if trace:
        for cell, other in zip(cells, traced_cells):
            if other.key() != cell.key():
                cell.checks_failed.append("traced")
    replays = {pair: replay(*pair, seed=seed) for pair in wl.pairs}

    failed_cells = [c for c in cells if c.failed]
    bad_replays = [pair for pair, ok in replays.items() if not ok]
    attempted = len(cells) + len(replays)
    failed = len(failed_cells) + len(bad_replays)
    done = [c.sim_s for c in cells if not c.failed]
    summary = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(imports) + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
        "sim_ms": statistics.geometric_mean([t * 1e3 for t in done])
        if done else math.inf,
        "failed_frac": failed / attempted,
    }
    report = {
        "workload": name, "seed": seed, "passes": len(walls),
        "walls": walls, "setups": setups, "imports": imports,
        "summary": summary,
        "failed_cells": [(c.name, c.checks_failed or ["incomplete"])
                         for c in failed_cells],
        "bad_replays": bad_replays,
        "correct": not bad_replays and not any(c.checks_failed for c in cells),
        "attempted": attempted, "failed": failed, "traced": trace,
    }
    if not trace:
        report["metrics"] = {
            k: {"value": v, "unit": UNITS[k]} for k, v in summary.items()
            if k != "failed_frac"
        }
        return report

    def total(key: str) -> int:
        return sum(c.stats.get(key, 0) for c in cells)

    times = self_times(profile)
    calls = call_counts(profile)
    per_world = all("sends" in c.stats for c in cells)
    lookups = calls["network.lookups"]
    layer: dict[str, tuple[float, str]] = {
        f"{k}.self_s": (v, "s") for k, v in times.items()
    }
    layer.update({
        "sim.events": (total("events"), "count"),
        "sim.cancels": (calls["sim.cancels"], "count"),
        "mpi.rendezvous": (calls["mpi.rendezvous"], "count"),
        # figure_sweep's worlds live inside run_jobs: sends and flows fall
        # back to call counts there, bytes and unexpected read 0.
        "mpi.sends": (total("sends") if per_world else calls["mpi.isend_calls"],
                      "count"),
        "mpi.bytes": (total("bytes"), "B"),
        "mpi.unexpected": (total("unexpected"), "count"),
        "mpi.retransmits": (total("retransmits"), "count"),
        "network.rebalances": (calls["network.rebalances"], "count"),
        "network.solves": (calls["network.solves"], "count"),
        "network.shape_hit_ratio": (
            max(0.0, 1.0 - calls["network.solves"] / lookups) if lookups else 0.0,
            "ratio"),
        "network.flows": (total("flows") if per_world else calls["network.submits"],
                          "count"),
        "faults.drops": (total("drops"), "count"),
        "parallel.cache_hits": (traced_extra.get("cache_hits", 0), "count"),
        "parallel.cache_misses": (traced_extra.get("cache_misses", 0), "count"),
        "trace.overhead_s": (
            traced_s - statistics.median(setups) - summary["wall_s"], "s"),
    })
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    return report


def render(report: dict) -> str:
    """The human-readable table printed before the JSON line."""
    lines = [
        f"workload {report['workload']}  seed {report['seed']}  "
        f"{report['passes']} measured pass(es)  "
        f"{report['attempted']} cells attempted, {report['failed']} failed",
    ]
    for k, v in report["summary"].items():
        lines.append(f"  {k:<12} {v:>14.6g} {UNITS[k]}")
    for k in ("walls", "setups", "imports"):
        lines.append(f"  {k:<12} " + " ".join(f"{v:.4f}" for v in report[k]))
    if report["traced"]:
        lines.append("  per-layer (traced pass):")
        for k, m in report["metrics"].items():
            lines.append(f"    {k:<26} {m['value']:>16.6g} {m['unit']}")
    for cell, why in report["failed_cells"]:
        lines.append(f"  FAILED cell: {cell} ({', '.join(why)})")
    for pair in report["bad_replays"]:
        lines.append(f"  FAILED replay: {pair}")
    return "\n".join(lines)


def result_line(report: dict) -> dict:
    """The JSON object printed as the last line of output."""
    return {k: report[k] for k in ("correct", "attempted", "failed", "metrics")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("adapt_scale", "waitall_contention",
                                 "figure_sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(render(report))
    print(json.dumps(result_line(report)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
