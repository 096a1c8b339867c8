"""Sharded parallel trace generation.

The serial :class:`~repro.workload.generator.TraceGenerator` executes the
whole population in one process, which makes week-scale traces CPU-bound
on a single core.  This module partitions the population into ``K``
deterministic shards and generates them on worker processes, preserving a
strict determinism contract:

**Determinism contract.**  For a fixed master seed, the merged sharded
stream is record-for-record identical to the serial trace
(:func:`~repro.workload.generator.generate_trace`) — same records, same
order, same session ids — regardless of the number of shards, the
number of workers, or worker scheduling.  Three properties make this
hold:

1. Per-user RNG streams are spawned off the master seed with
   :class:`numpy.random.SeedSequence` keyed only by ``user_id`` (see
   :func:`repro.workload.generator.user_rng`), so a user's records do not
   depend on which other users a worker generates, or in what order.
2. Session ids are namespaced per user
   (``user_id * SESSION_ID_STRIDE + k``), so no cross-user counter leaks
   scheduling order into the output.
3. Shard assignment is a pure function of ``user_id`` and the shard
   count (:func:`shard_of_user`), and the parent builds the
   deterministic population once and hands each worker its shard.

Each worker streams its users, in ascending ``user_id`` order, to a
memory-mappable columnar part directory (:mod:`repro.logs.parts`), so
every part is ``(user_id, timestamp)``-sorted on disk.
:meth:`ColumnarShardedTrace.merged_blocks` k-way merges the parts into
that global order — the serial generator's emission order.  Ties within
one ``(user_id, timestamp)`` key keep the user's emission order, which is
well-defined because a user lives in exactly one shard.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

from ..logs.columnar import (
    DEFAULT_MERGE_BLOCK_ROWS,
    ColumnarTrace,
    merge_columnar_sorted,
)
from ..logs.parts import ColumnarPartWriter, read_columnar_part
from ..logs.schema import LogRecord
from .config import WorkloadConfig
from .generator import GeneratorOptions, TraceGenerator
from .population import UserSpec, build_population

#: Part directories are named ``part-0042.cols`` inside the part directory.
PART_STEM = "part"

#: Records a worker buffers before appending them to its part files.
#: Bounds worker RSS at O(batch), independent of shard size.
DEFAULT_PART_BATCH_RECORDS = 65_536


# ----------------------------------------------------------------------
# Shard partitioning
# ----------------------------------------------------------------------


def shard_of_user(user_id: int, n_shards: int) -> int:
    """Deterministic shard assignment: ``user_id % n_shards``.

    A pure function of its arguments — independent of population size,
    generation order, and worker count.  Changing ``n_shards`` *does*
    reassign users (this is the one documented instability); for a fixed
    shard count the mapping never changes.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    return user_id % n_shards


def partition_users(
    users: Sequence[UserSpec], n_shards: int
) -> list[list[UserSpec]]:
    """Split ``users`` into ``n_shards`` lists by :func:`shard_of_user`.

    Every user lands in exactly one shard; shards may be empty (including
    the degenerate empty-population case, which yields ``n_shards`` empty
    lists).  Within a shard, the population's relative order is kept.
    """
    shards: list[list[UserSpec]] = [[] for _ in range(n_shards)]
    for user in users:
        shards[shard_of_user(user.user_id, n_shards)].append(user)
    return shards


# ----------------------------------------------------------------------
# Shard execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardTask:
    """Everything a worker needs to generate one shard."""

    shard_index: int
    n_mobile_users: int
    n_pc_only_users: int
    config: WorkloadConfig | None
    options: GeneratorOptions | None
    seed: int
    #: Destination part directory.
    path: str
    #: This shard's prebuilt user specs (from the parent's one
    #: :func:`build_population` call).
    users: tuple[UserSpec, ...]
    #: Records the worker buffers between part appends.
    batch_records: int = DEFAULT_PART_BATCH_RECORDS


@dataclass(frozen=True)
class ColumnarShardPart:
    """One shard written as a memory-mappable columnar part directory."""

    shard_index: int
    path: str
    n_records: int
    n_users: int

    def open(self, *, mmap: bool = True) -> ColumnarTrace:
        """Open the part (memory-mapped by default — zero copy)."""
        return read_columnar_part(self.path, mmap=mmap)


def _generate_shard_part(task: ShardTask) -> ColumnarShardPart:
    """Worker: stream one shard straight to a columnar part directory.

    Users are generated in ascending ``user_id`` order (each user's
    records already time-sorted), so the part is ``(user_id, timestamp)``-
    sorted on disk without any shard-wide sort or materialization: at
    most ``task.batch_records`` records exist at a time, whatever the
    shard size.  Only the part *path* crosses back to the parent.
    """
    generator = TraceGenerator(
        task.n_mobile_users,
        n_pc_only_users=task.n_pc_only_users,
        config=task.config,
        options=task.options,
        seed=task.seed,
        population=list(task.users),
    )
    # The population is built in ascending user_id order already; sorting
    # makes the part's sort invariant locally evident (and is a no-op).
    users = sorted(task.users, key=lambda user: user.user_id)
    with ColumnarPartWriter(task.path) as writer:
        buffer: list[LogRecord] = []
        for user in users:
            buffer.extend(generator.generate_user(user))
            if len(buffer) >= task.batch_records:
                writer.append(ColumnarTrace.from_records(buffer))
                buffer.clear()
        if buffer:
            writer.append(ColumnarTrace.from_records(buffer))
        n_records = writer.n_rows
    return ColumnarShardPart(
        shard_index=task.shard_index,
        path=task.path,
        n_records=n_records,
        n_users=len(users),
    )


# ----------------------------------------------------------------------
# Orchestration and merging
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnarShardedTrace:
    """A trace generated as on-disk columnar shard parts.

    Nothing is resident: each part is a directory of raw ``.npy`` column
    files that :meth:`merged_blocks` memory-maps and k-way merges into
    bounded-size blocks in global ``(user_id, timestamp)`` order — the
    stream the folds in :mod:`repro.core.streaming` consume.
    """

    parts: tuple[ColumnarShardPart, ...]

    @property
    def n_records(self) -> int:
        return sum(part.n_records for part in self.parts)

    @property
    def paths(self) -> list[str]:
        return [part.path for part in self.parts]

    def open_parts(self, *, mmap: bool = True) -> list[ColumnarTrace]:
        return [part.open(mmap=mmap) for part in self.parts]

    def merged_blocks(
        self,
        *,
        block_rows: int = DEFAULT_MERGE_BLOCK_ROWS,
        mmap: bool = True,
    ) -> Iterator[ColumnarTrace]:
        """Stream the global ``(user_id, timestamp)`` order in blocks.

        The blocks' rows, in order, are the records
        :func:`~repro.workload.generator.generate_trace` returns, but
        peak RSS is O(``block_rows`` × shards): sources are memory-mapped
        and the merge buffers one window per shard.
        """
        return merge_columnar_sorted(
            self.open_parts(mmap=mmap),
            block_rows=block_rows,
            order="user_time",
        )


def _resolve_workers(n_shards: int, n_workers: int | None) -> int:
    if n_workers is None:
        n_workers = min(n_shards, os.cpu_count() or 1)
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    return min(n_workers, n_shards)


def generate_columnar_sharded(
    n_mobile_users: int,
    *,
    n_pc_only_users: int = 0,
    config: WorkloadConfig | None = None,
    options: GeneratorOptions | None = None,
    seed: int = 0,
    n_shards: int = 4,
    n_workers: int | None = None,
    part_dir: str | Path,
    batch_records: int = DEFAULT_PART_BATCH_RECORDS,
) -> ColumnarShardedTrace:
    """Generate a trace as memory-mappable columnar shard parts.

    Workers stream their shards to ``part_dir/part-NNNN.cols/``
    directories (worker RSS bounded by ``batch_records``) and hand back
    paths; the parent pickles no arrays and holds no records.  Follow
    with :meth:`ColumnarShardedTrace.merged_blocks` to read the global
    stream in bounded memory.

    Parameters
    ----------
    n_shards:
        Number of deterministic population shards.  The merged stream is
        identical for every value (the determinism contract).
    n_workers:
        Worker processes; defaults to ``min(n_shards, cpu_count)``.  With
        one worker, shards run inline in this process (no pool overhead,
        same output).
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if batch_records < 1:
        raise ValueError(f"batch_records must be >= 1, got {batch_records}")
    n_workers = _resolve_workers(n_shards, n_workers)
    part_dir = Path(part_dir)
    part_dir.mkdir(parents=True, exist_ok=True)
    # Build the population once here and hand each worker only its shard,
    # so workers skip the O(population) rebuild.  build_population
    # validates the counts as a side effect.
    population = build_population(
        n_mobile_users,
        n_pc_only_users=n_pc_only_users,
        config=config or WorkloadConfig(),
        seed=seed,
    )
    shards = partition_users(population, n_shards)
    tasks = [
        ShardTask(
            shard_index=index,
            n_mobile_users=n_mobile_users,
            n_pc_only_users=n_pc_only_users,
            config=config,
            options=options,
            seed=seed,
            path=str(part_dir / f"{PART_STEM}-{index:04d}.cols"),
            users=tuple(shards[index]),
            batch_records=batch_records,
        )
        for index in range(n_shards)
    ]
    if n_workers == 1:
        parts = [_generate_shard_part(task) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(_generate_shard_part, tasks))
    return ColumnarShardedTrace(parts=tuple(parts))
