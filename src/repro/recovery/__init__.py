"""Live recovery for ADAPT collectives (DESIGN.md S20).

Three pillars, layered on the PR-2 fault stack:

1. **membership** — ULFM-style agreement: suspicions from the failure
   detector are coalesced, agreed over a survivor ring (a silent hop is
   itself declared failed), and committed as numbered
   :class:`~repro.recovery.membership.SurvivorView` epochs.
2. **repair** — every ADAPT collective completes under mid-flight
   fail-stop: bcast/scatter/barrier/alltoall repair *in place* (tree
   re-grafting / peer excusal inside the running state machines);
   reduce/gather/allreduce/allgather/reduce-scatter restart among the
   survivors at each committed epoch
   (:class:`~repro.recovery.restart.EpochRestart`).
3. **integrity** — per-segment checksums with NACK-triggered retransmit
   live in the transport (:mod:`repro.mpi.runtime`); the ``corrupt`` fault
   kind exercises them.

:func:`launch_recover` is the front door: it arms the membership service
and launches the named collective in its recovering configuration.
"""

from __future__ import annotations

from repro.collectives import (
    allgather_adapt,
    allreduce_adapt,
    alltoall_adapt,
    barrier_adapt,
    bcast_adapt,
    gather_adapt,
    reduce_adapt,
    reduce_scatter_adapt,
    scatter_adapt,
)
from repro.collectives.base import CollectiveContext, CollectiveHandle
from repro.recovery.membership import (
    MembershipService,
    SurvivorView,
    agreed_view,
    ensure_membership,
    merge_suspicions,
    ring_walk,
)
from repro.recovery.restart import (
    EpochRestart,
    allgather_ring_members,
    reduce_scatter_ring_members,
)

__all__ = [
    "MembershipService",
    "SurvivorView",
    "agreed_view",
    "merge_suspicions",
    "ring_walk",
    "ensure_membership",
    "EpochRestart",
    "launch_recover",
    "RECOVERY_MODES",
]

#: How each collective recovers: repaired in place by its own state
#: machine, or shrunk-and-restarted at each membership epoch.
RECOVERY_MODES = {
    "bcast": "in-place",
    "scatter": "in-place",
    "barrier": "in-place",
    "alltoall": "in-place",
    "reduce": "restart",
    "gather": "restart",
    "allreduce": "restart",
    "allgather": "restart",
    "reduce_scatter": "restart",
}

_INPLACE_ALGOS = {
    "bcast": bcast_adapt,
    "scatter": scatter_adapt,
    "barrier": barrier_adapt,
    "alltoall": alltoall_adapt,
}


def launch_recover(name: str, ctx: CollectiveContext) -> CollectiveHandle:
    """Launch collective ``name`` with live recovery armed.

    The fault-free path is byte-identical to the plain launch (attempt 0 is
    the unmodified algorithm; the membership service only acts on
    suspicions). Under fail-stop, in-place collectives keep running through
    the repair and the membership commit back-fills
    ``report.agreed_failed``/``epoch``; restart collectives relaunch among
    the survivors at each committed epoch.
    """
    mode = RECOVERY_MODES.get(name)
    if mode is None:
        raise ValueError(
            f"unknown collective {name!r}; known: {sorted(RECOVERY_MODES)}"
        )
    if mode == "in-place":
        return _launch_inplace(name, ctx)
    return _launch_restart(name, ctx)


def _launch_inplace(name: str, ctx: CollectiveContext) -> CollectiveHandle:
    ms = ensure_membership(ctx.world)
    handle = _INPLACE_ALGOS[name](ctx)

    def on_view(view: SurvivorView) -> None:
        failed_locals = ctx.comm.locals_of(view.failed)
        rep = handle.report
        if failed_locals:
            rep.degraded = True
            rep.failed_ranks |= failed_locals
        rep.agreed_failed = set(failed_locals)
        rep.epoch = view.epoch
        for dead in sorted(failed_locals):
            handle.excuse(dead)

    ms.subscribe(on_view)
    return handle


def _launch_restart(name: str, ctx: CollectiveContext) -> CollectiveHandle:
    if name == "reduce":
        driver = EpochRestart(
            ctx, "reduce-adapt-recover",
            lambda c: reduce_adapt(c),
            lambda c, members: reduce_adapt(c, ranks=members),
            root_required=True,
        )
    elif name == "gather":
        driver = EpochRestart(
            ctx, "gather-adapt-recover",
            lambda c: gather_adapt(c),
            lambda c, members: gather_adapt(c, ranks=members),
            root_required=True,
        )
    elif name == "allreduce":
        driver = EpochRestart(
            ctx, "allreduce-adapt-recover",
            lambda c: allreduce_adapt(c),
            lambda c, members: allreduce_adapt(c, ranks=members),
            root_required=True,
        )
    elif name == "allgather":
        driver = EpochRestart(
            ctx, "allgather-adapt-recover",
            lambda c: allgather_adapt(c),
            lambda c, members: allgather_ring_members(c, members),
            root_required=False,
        )
    else:  # reduce_scatter
        driver = EpochRestart(
            ctx, "reduce-scatter-adapt-recover",
            lambda c: reduce_scatter_adapt(c),
            lambda c, members: reduce_scatter_ring_members(c, members),
            root_required=False,
        )
    return driver.handle
