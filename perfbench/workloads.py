"""The benchmark's three workloads, generated from a seed.

Each workload is a pair of callables:

* ``setup()`` builds what the workload runs on (machine specs, including
  topology compiles, the ``MpiWorld``s, and the prepared collectives). The
  harness times it as ``setup_s``.
* ``run(state)`` runs the measured pass on a fresh ``setup()`` state and
  returns one :class:`Cell` per measured collective plus pass-level
  counters. The harness times it as ``wall_s``.

``adapt_scale`` and ``waitall_contention`` drive one large world per cell
directly, so their counters come from the world's public state.
``figure_sweep`` goes through ``repro.parallel.run_jobs`` like the figure
drivers do, so its worlds stay inside the executor and its counters come
from the returned ``RunResult``s.

``size="smoke"`` shrinks every workload for the benchmark's own tests; it
runs the same code path.
"""

from __future__ import annotations

import math
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

KiB = 1 << 10
MiB = 1 << 20

#: Simulated-seconds bound on every fault cell of ``figure_sweep``. Healthy
#: fault cells finish in a few simulated milliseconds; without a bound the
#: runner's drive loop never returns on a loss plan that stalls.
FAULT_TIME_LIMIT = 1.0

#: Iterations per ``figure_sweep`` cell.
SWEEP_ITERATIONS = 2

#: Iterations of the small-message loss cells. One drop there costs a ~1 ms
#: retransmit timeout against a 0.04-0.2 ms collective; over 2 iterations
#: the cell's time would jump 10-50x with the seed and swamp ``sim_ms``.
SMALL_LOSS_ITERATIONS = 16

#: Message sizes of the single-world workloads are kept to a few host
#: seconds per pass, so that ``wall_s`` is a median over several passes: a
#: shared host slows single passes by 10-50% for seconds at a time.
SIZES = {
    "full": {
        "adapt_ranks": 2048, "adapt_bcast": 1 * MiB, "adapt_allreduce": 256 * KiB,
        "waitall_ranks": 256, "waitall_bcast": 2 * MiB,
        "sweep_nodes": 2, "big": 4 * MiB, "small": 64 * KiB, "reduce_big": 1 * MiB,
    },
    "smoke": {
        "adapt_ranks": 128, "adapt_bcast": 256 * KiB, "adapt_allreduce": 64 * KiB,
        "waitall_ranks": 32, "waitall_bcast": 256 * KiB,
        "sweep_nodes": 1, "big": 256 * KiB, "small": 16 * KiB, "reduce_big": 64 * KiB,
    },
}


@dataclass
class Cell:
    """One measured collective: its simulated time and its counters.

    ``sim_s`` is the simulated mean per-iteration time (``inf`` when the
    cell did not complete). ``stats`` holds the deterministic counters the
    identity checks compare across passes.
    """

    name: str
    sim_s: float
    completed: bool
    stats: dict = field(default_factory=dict)
    result: Optional[dict] = None  # RunResult.to_dict() for sweep cells
    #: Output checks this cell failed (a failed cell need not be incorrect:
    #: one that never completes fails with no check failed).
    checks_failed: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return not self.completed or bool(self.checks_failed)

    def key(self) -> tuple:
        """Everything that must be identical between two runs of the cell."""
        return (self.name, self.sim_s, self.completed,
                sorted(self.stats.items()), self.result)


@dataclass
class Workload:
    setup: Callable[[], Any]
    run: Callable[[Any], list]
    #: (library, operation, options) pairs the data-carrying replay checks.
    pairs: list
    cleanup: Callable[[], None] = lambda: None


# -- single-world workloads -----------------------------------------------


def _single_world(
    nranks: int, trim: int, cells: list[tuple[str, str, int]]
) -> Workload:
    """One ``for_ranks("cori", nranks)`` world per (library, op, bytes) cell,
    root 0, one iteration each, no faults or noise.

    The seed's only input is ``trim``: each message loses ``trim``/1024 of
    its size (0 to 15, so under 1.5%), which moves the simulated time while
    keeping the segment count and the host work. The seed does not pick the
    root: on 256 ranks an OMPI-default bcast rooted at a node's second core
    (root = 1 mod 32) costs a third of the host time of one rooted elsewhere,
    with the same simulated time, so a seeded root would swamp ``wall_s``.
    """
    cells = [(lib, op, nbytes - trim * (nbytes >> 10)) for lib, op, nbytes in cells]

    def setup():
        from repro.config import DEFAULT_COLLECTIVE
        from repro.libraries.presets import library_by_name, prepare_operation
        from repro.machine import for_ranks
        from repro.mpi import Communicator, MpiWorld

        spec = for_ranks("cori", nranks)
        state = []
        for lib, op, nbytes in cells:
            world = MpiWorld(spec, nranks)
            prepare = prepare_operation(library_by_name(lib), op)
            prep = prepare(Communicator(world), 0, nbytes, DEFAULT_COLLECTIVE)
            state.append((f"{lib} {op} {nbytes}B", world, prep))
        return state

    def run(state) -> tuple[list[Cell], dict]:
        out = []
        for cell_name, world, prep in state:
            start = world.engine.now
            handle = prep.launch()
            world.run()
            done = handle.done and bool(handle.done_time)
            sim = max(handle.done_time.values()) - start if done else math.inf
            out.append(Cell(cell_name, sim, done, world_stats(world)))
        return out, {}

    pairs = sorted({(lib, op, ()) for lib, op, _ in cells})
    return Workload(setup, run, pairs)


def world_stats(world) -> dict:
    """Public counters of one finished world."""
    transport = world.transport_stats()
    return {
        "events": int(world.engine.stats()["events_processed"]),
        "flows": world.fabric.network.flows_completed,
        "sends": sum(rt.sends_posted for rt in world.ranks),
        "bytes": sum(rt.bytes_sent for rt in world.ranks),
        "unexpected": world.total_unexpected(),
        "retransmits": transport["retransmits"],
    }


def adapt_scale(seed: int, size: str = "full") -> Workload:
    """OMPI-adapt bcast 1 MiB then allreduce 256 KiB on one 2048-rank world."""
    cfg = SIZES[size]
    return _single_world(cfg["adapt_ranks"], _trim("adapt_scale", seed), [
        ("OMPI-adapt", "bcast", cfg["adapt_bcast"]),
        ("OMPI-adapt", "allreduce", cfg["adapt_allreduce"]),
    ])


def waitall_contention(seed: int, size: str = "full") -> Workload:
    """OMPI-default (non-blocking sends closed by a Waitall) bcast 2 MiB on
    256 ranks: the paper's comparator, allocator-bound."""
    cfg = SIZES[size]
    return _single_world(cfg["waitall_ranks"], _trim("waitall_contention", seed), [
        ("OMPI-default", "bcast", cfg["waitall_bcast"]),
    ])


def _trim(name: str, seed: int) -> int:
    return random.Random(f"{name}/{seed}").randrange(16)


# -- figure_sweep ----------------------------------------------------------

SWEEP_LIBRARIES = ("OMPI-adapt", "OMPI-default", "Cray MPI")
SWEEP_OPERATIONS = ("bcast", "reduce")
SWEEP_CONDITIONS = ("clean", "noise", "loss")


def pinned_reproducer():
    """The known hang, fixed whatever the seed: OMPI-adapt reduce 4 MiB on
    cori(2), 64 ranks, 1% loss (plan seed 2), job seed 1. It never completes
    (README.md, "Known defect")."""
    from repro.faults.plan import FaultPlan, LossSpec
    from repro.parallel import SimJob

    return SimJob(
        machine="cori", nodes=2, nranks=64, library="OMPI-adapt",
        operation="reduce", nbytes=4 * MiB, iterations=SWEEP_ITERATIONS,
        seed=1, fault_plan=FaultPlan(losses=[LossSpec(drop=0.01)], seed=2),
        time_limit=FAULT_TIME_LIMIT,
    )


def sweep_jobs(seed: int, size: str = "full") -> list:
    """The 41 ``figure_sweep`` cells for ``seed``.

    The seed picks job seeds, noisy ranks, fault-plan seeds, stall victims
    and the kill; roots stay 0, as in the figure drivers. The grid's
    (OMPI-adapt, reduce, 4 MiB, loss) cell is the pinned reproducer, which
    the seed does not touch.
    """
    from repro.faults.plan import FaultPlan, LossSpec
    from repro.parallel import SimJob

    cfg = SIZES[size]
    rng = random.Random(f"figure_sweep/{seed}")
    nodes = cfg["sweep_nodes"]
    nranks = 32 * nodes
    jobs = []
    for lib in SWEEP_LIBRARIES:
        for op in SWEEP_OPERATIONS:
            for nbytes in (cfg["small"], cfg["big"]):
                for cond in SWEEP_CONDITIONS:
                    if (lib, op, nbytes, cond) == (
                        "OMPI-adapt", "reduce", cfg["big"], "loss"
                    ):
                        jobs.append(pinned_reproducer())
                        continue
                    kw: dict[str, Any] = {}
                    if cond == "noise":
                        # fig07-style: one noise source, events sized to a
                        # few collective times.
                        kw = dict(noise_percent=10.0,
                                  noise_ranks=(rng.randrange(nranks),),
                                  noise_frequency=1000.0)
                    elif cond == "loss":
                        kw = dict(fault_plan=FaultPlan(
                            losses=[LossSpec(drop=0.01, duplicate=0.001)],
                            seed=rng.randrange(1 << 16)),
                            time_limit=FAULT_TIME_LIMIT)
                        if nbytes == cfg["small"]:
                            kw["iterations"] = SMALL_LOSS_ITERATIONS
                    kw.setdefault("iterations", SWEEP_ITERATIONS)
                    jobs.append(SimJob(
                        machine="cori", nodes=nodes, library=lib, operation=op,
                        nbytes=nbytes, seed=rng.randrange(1 << 16), **kw,
                    ))
    common = dict(iterations=SWEEP_ITERATIONS, library="OMPI-adapt")
    jobs.append(SimJob(machine="dragonfly", nodes=nodes, nranks=nranks,
                       operation="alltoall", nbytes=4 * KiB,
                       seed=rng.randrange(1 << 16), **common))
    jobs.append(SimJob(machine="fattree", nodes=nodes, nranks=nranks,
                       operation="allgather", nbytes=cfg["small"],
                       seed=rng.randrange(1 << 16), **common))
    jobs.append(SimJob(machine="railpod", nodes=2 * nodes, gpu=True,
                       operation="allreduce", nbytes=cfg["big"],
                       seed=rng.randrange(1 << 16), **common))
    jobs.append(SimJob(
        machine="cori", nodes=nodes, operation="allreduce_quorum",
        nbytes=cfg["reduce_big"], quorum=0.75,
        fault_plan=FaultPlan.stall_sweep(
            nranks, victims=2, duration=2e-3, start=2e-4,
            seed=rng.randrange(1 << 16)),
        time_limit=FAULT_TIME_LIMIT, seed=rng.randrange(1 << 16), **common,
    ))
    victim = rng.randrange(1, nranks)
    jobs.append(SimJob(
        machine="cori", nodes=nodes, operation="allreduce",
        nbytes=256 * KiB, recover=True, mode="sequential",
        fault_plan=FaultPlan.single_kill(victim, rng.uniform(1e-4, 3e-4)),
        time_limit=FAULT_TIME_LIMIT, seed=rng.randrange(1 << 16), **common,
    ))
    return jobs


def _job_spec(job):
    """The machine spec a job runs on (families go through the compiler)."""
    from repro.machine import cori
    from repro.machine.presets import TOPO_FAMILY_NAMES

    if job.machine in TOPO_FAMILY_NAMES:
        from repro.topo import build_family

        return build_family(job.machine, nodes=job.nodes)
    return cori(job.nodes)


def _prepare_job(job, spec):
    """Construct ``job``'s world and prepare its first collective."""
    from repro.config import DEFAULT_COLLECTIVE
    from repro.libraries.presets import library_by_name, prepare_operation
    from repro.mpi import Communicator, MpiWorld
    from repro.relaxed import QuorumPolicy

    nranks = job.nranks
    if nranks is None:
        nranks = spec.total_gpus if job.gpu else spec.total_cores
    world = MpiWorld(spec, nranks, gpu_bound=job.gpu)
    policy = QuorumPolicy(quorum=job.quorum) if job.quorum is not None else None
    prepare = prepare_operation(library_by_name(job.library), job.operation,
                                recover=job.recover, policy=policy)
    return world, prepare(Communicator(world), job.root, job.nbytes,
                          DEFAULT_COLLECTIVE)


def sweep_cell(job, result) -> Cell:
    """A ``figure_sweep`` cell from its job and ``RunResult``."""
    done = result.completed and all(math.isfinite(t) for t in result.times)
    stats = {
        "events": int(result.engine_stats.get("events_processed", 0)),
        "retransmits": int(result.transport.get("retransmits", 0)),
        "drops": int(result.transport.get("dropped", 0)),
    }
    name = (f"{job.machine} {job.library} {job.operation} {job.nbytes}B "
            f"seed={job.seed}")
    if job.noise_percent:
        name += f" noise@{job.noise_ranks[0]}"
    if job.fault_plan is not None:
        name += f" faults(seed={job.fault_plan.seed})"
    return Cell(name, result.mean_time if done else math.inf, done, stats,
                result.to_dict())


def figure_sweep(seed: int, size: str = "full", workdir: str = ".") -> Workload:
    """41 cells through ``run_jobs(n_jobs=1)`` into a fresh ``ResultCache``,
    then the same cells again against that cache (all hits)."""
    jobs = sweep_jobs(seed, size)
    tmp = tempfile.mkdtemp(prefix=".perfbench-cache-", dir=workdir)

    def setup():
        specs = {}
        state = []
        for job in jobs:
            key = (job.machine, job.nodes)
            if key not in specs:
                specs[key] = _job_spec(job)
            state.append(_prepare_job(job, specs[key]))
        return state

    def run(_state) -> tuple[list[Cell], dict]:
        from repro.parallel import ResultCache, run_jobs

        cache = ResultCache(tempfile.mkdtemp(dir=tmp))
        results = run_jobs(jobs, n_jobs=1, cache=cache)
        cells = [sweep_cell(j, r) for j, r in zip(jobs, results)]
        misses = cache.misses
        # Output check: re-running against the cache just filled must hit
        # on every cell and hand back identical results.
        stored = [cache.path_for(j).is_file() for j in jobs]
        for cell, again, hit in zip(cells, run_jobs(jobs, n_jobs=1, cache=cache),
                                    stored):
            if not hit or again.to_dict() != cell.result:
                cell.checks_failed.append("cache")
        return cells, {"cache_misses": misses, "cache_hits": cache.hits}

    pairs = sorted(
        {(j.library, j.operation, (("recover", True),) if j.recover else
          (("quorum", j.quorum),) if j.quorum is not None else ())
         for j in jobs},
        key=repr,
    )
    return Workload(setup, run, pairs,
                    cleanup=lambda: shutil.rmtree(tmp, ignore_errors=True))


WORKLOADS = {
    "adapt_scale": adapt_scale,
    "waitall_contention": waitall_contention,
    "figure_sweep": figure_sweep,
}
