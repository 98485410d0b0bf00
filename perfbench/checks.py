"""Data-carrying replay: each (library, operation) pair a workload uses runs
once more with real payloads on a small machine and must match a numpy
oracle bit for bit.

The replay runs on the 24-rank testbox (3 nodes x 2 sockets x 4 cores)
with ``carry_data=True``. Payloads are uint8 and reductions are SUM, which
wraps mod 256, so the oracle is independent of the order in which a schedule
combines contributions. Quorum operations must reach their quorum and are
checked against the sum over exactly the ranks the report says contributed.
"""

from __future__ import annotations

import numpy as np

REPLAY_RANKS = 24
#: Three default-size (128 KiB) pipeline segments, divisible into equal
#: per-rank blocks.
REPLAY_BYTES = 384 << 10


def _payload(operation: str, rng: np.random.Generator, nranks: int, nbytes: int):
    if operation == "bcast":
        return rng.integers(0, 256, nbytes, dtype=np.uint8)
    if operation == "allgather":
        block = nbytes // nranks
        return {r: rng.integers(0, 256, block, dtype=np.uint8)
                for r in range(nranks)}
    return {r: rng.integers(0, 256, nbytes, dtype=np.uint8)
            for r in range(nranks)}


def _sum(data: dict, ranks) -> np.ndarray:
    acc = np.zeros_like(next(iter(data.values())))
    for r in sorted(ranks):
        acc = acc + data[r]  # uint8 + uint8 wraps mod 256
    return acc


def _expected(operation: str, data, nranks: int, root: int, handle) -> dict:
    """rank -> expected output bytes."""
    everyone = range(nranks)
    if operation == "bcast":
        return {r: data for r in everyone}
    if operation == "reduce":
        return {root: _sum(data, everyone)}
    if operation == "allreduce":
        total = _sum(data, everyone)
        return {r: total for r in everyone}
    if operation == "allreduce_quorum":
        # Ranks outside the delivery quorum are excused and get no output.
        total = _sum(data, handle.report.contributed_ranks)
        return {r: total for r in handle.done_time}
    if operation == "allgather":
        whole = np.concatenate([data[r] for r in everyone])
        return {r: whole for r in everyone}
    if operation == "alltoall":
        block = len(data[0]) // nranks
        return {
            r: np.concatenate(
                [data[s][r * block:(r + 1) * block] for s in everyone])
            for r in everyone
        }
    raise ValueError(f"no oracle for {operation!r}")


def replay(library: str, operation: str, options: tuple, seed: int) -> bool:
    """Run one data-carrying replay; True when every output is bit-exact."""
    from repro.config import DEFAULT_COLLECTIVE
    from repro.libraries.presets import library_by_name, prepare_operation
    from repro.machine import small_test_machine
    from repro.mpi import Communicator, MpiWorld
    from repro.relaxed import QuorumPolicy

    opts = dict(options)
    policy = QuorumPolicy(quorum=opts["quorum"]) if "quorum" in opts else None
    rng = np.random.default_rng(seed)
    root = int(rng.integers(REPLAY_RANKS))
    data = _payload(operation, rng, REPLAY_RANKS, REPLAY_BYTES)
    world = MpiWorld(small_test_machine(), REPLAY_RANKS, carry_data=True)
    prepare = prepare_operation(library_by_name(library), operation,
                                recover=opts.get("recover", False),
                                policy=policy)
    handle = prepare(Communicator(world), root, REPLAY_BYTES,
                     DEFAULT_COLLECTIVE, data=data).launch()
    world.run()
    if not handle.done:
        return False
    if policy is not None and (
        len(handle.report.contributed_ranks) < policy.resolve(REPLAY_RANKS)
    ):
        return False
    for rank, want in _expected(operation, data, REPLAY_RANKS, root,
                                handle).items():
        got = np.asarray(handle.output[rank]).view(np.uint8)
        if not np.array_equal(got, want):
            return False
    return True
