"""Sharded parallel generation: determinism-equivalence harness.

The contract under test (see ``docs/SCALING.md``): for a fixed master
seed, the merged stream of :func:`generate_columnar_sharded` is
record-for-record identical to the serial generator — same records, same
order, same session ids — for every shard count and worker count.  The
serial :func:`generate_trace` is the oracle throughout.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.helpers import assert_traces_equivalent, canonical_lines
from repro.logs.columnar import COLUMNS, ColumnarTrace
from repro.logs.io import open_reader, write_jsonl, write_tsv
from repro.workload import (
    GeneratorOptions,
    ShardTask,
    build_population,
    generate_columnar_sharded,
    generate_trace,
    partition_users,
    shard_of_user,
)
from repro.workload.parallel import _generate_shard_part

N_USERS = 120
N_PC_USERS = 25
SEED = 977
OPTIONS = GeneratorOptions(max_chunks_per_file=2)


@pytest.fixture(scope="module")
def serial_trace():
    return generate_trace(
        N_USERS, n_pc_only_users=N_PC_USERS, options=OPTIONS, seed=SEED
    )


def sharded_kwargs(**overrides):
    kwargs = dict(
        n_pc_only_users=N_PC_USERS, options=OPTIONS, seed=SEED
    )
    kwargs.update(overrides)
    return kwargs


def merged_records(sharded, **kwargs):
    """The sharded trace's merged stream, materialized as records."""
    return ColumnarTrace.concatenate(
        list(sharded.merged_blocks(**kwargs))
    ).to_records()


def session_ids(records):
    # LogRecord.__eq__ ignores session_id, so compare it explicitly.
    return [r.session_id for r in records]


# ----------------------------------------------------------------------
# Serial == sharded equivalence
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    ("n_shards", "n_workers"),
    [(1, 1), (2, 1), (4, 1), (2, 2), (4, 2)],
)
def test_sharded_equals_serial(serial_trace, tmp_path, n_shards, n_workers):
    sharded = generate_columnar_sharded(
        N_USERS,
        **sharded_kwargs(n_shards=n_shards, n_workers=n_workers),
        part_dir=tmp_path,
    )
    merged = merged_records(sharded)
    assert merged == serial_trace
    assert session_ids(merged) == session_ids(serial_trace)


def test_parallel_reconstructs_serial_order_exactly(serial_trace, tmp_path):
    """The merged stream is the serial list itself: same records, same
    order, same session ids, at every merge block size."""
    sharded = generate_columnar_sharded(
        N_USERS, **sharded_kwargs(n_shards=4, n_workers=2), part_dir=tmp_path
    )
    for block_rows in (1, 97, 1 << 20):
        merged = merged_records(sharded, block_rows=block_rows)
        assert merged == serial_trace
        assert session_ids(merged) == session_ids(serial_trace)


@pytest.mark.parametrize("part_format", ["tsv", "jsonl"])
def test_file_backed_shards_equal_serial(serial_trace, tmp_path, part_format):
    """The merged stream written to a TSV/JSONL file (what ``repro
    generate`` does) reads back as the serial trace."""
    sharded = generate_columnar_sharded(
        N_USERS,
        **sharded_kwargs(n_shards=3, n_workers=2),
        part_dir=tmp_path / "parts",
    )
    assert sharded.n_records == len(serial_trace)
    assert len(sharded.paths) == 3
    out = tmp_path / f"trace.{part_format}"
    writer = write_jsonl if part_format == "jsonl" else write_tsv
    count = writer(
        (r for block in sharded.merged_blocks() for r in block.iter_records()),
        out,
    )
    assert count == len(serial_trace)
    assert_traces_equivalent(
        serial_trace, open_reader(out), label=f"file-backed {part_format}"
    )


def test_different_seeds_produce_different_sharded_traces(tmp_path):
    a = generate_columnar_sharded(
        40, options=OPTIONS, seed=1, n_shards=2, part_dir=tmp_path / "a"
    )
    b = generate_columnar_sharded(
        40, options=OPTIONS, seed=2, n_shards=2, part_dir=tmp_path / "b"
    )
    assert canonical_lines(merged_records(a)) != canonical_lines(
        merged_records(b)
    )


# ----------------------------------------------------------------------
# Per-shard determinism and merge ordering
# ----------------------------------------------------------------------


def shard_task(index, n_shards, path):
    population = build_population(
        N_USERS, n_pc_only_users=N_PC_USERS, seed=SEED
    )
    return ShardTask(
        shard_index=index,
        n_mobile_users=N_USERS,
        n_pc_only_users=N_PC_USERS,
        config=None,
        options=OPTIONS,
        seed=SEED,
        path=path,
        users=tuple(partition_users(population, n_shards)[index]),
    )


def test_shard_rerun_is_bit_identical(tmp_path):
    """Re-running one shard task writes byte-identical column files."""
    first = tmp_path / "a.cols"
    second = tmp_path / "b.cols"
    part_a = _generate_shard_part(shard_task(1, 3, str(first)))
    part_b = _generate_shard_part(shard_task(1, 3, str(second)))
    assert part_a.n_records == part_b.n_records
    assert part_a.n_users == part_b.n_users
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()


def user_time_keys(trace):
    return list(zip(trace.user_id.tolist(), trace.timestamp.tolist()))


def test_part_files_sorted_by_merge_key(tmp_path):
    """Every part is sorted by the merge's ``(user_id, timestamp)`` key."""
    for index in range(3):
        part = _generate_shard_part(
            shard_task(index, 3, str(tmp_path / f"part-{index}.cols"))
        )
        keys = user_time_keys(part.open())
        assert keys == sorted(keys)


def test_merge_stream_is_globally_sorted(tmp_path):
    sharded = generate_columnar_sharded(
        N_USERS,
        **sharded_kwargs(n_shards=4, n_workers=1),
        part_dir=tmp_path,
    )
    previous = None
    count = 0
    for block in sharded.merged_blocks(block_rows=50):
        for key in user_time_keys(block):
            if previous is not None:
                assert key >= previous
            previous = key
            count += 1
    assert count == sharded.n_records


def test_merged_iterator_streams_in_memory_parts(tmp_path):
    """Parts loaded into memory (``mmap=False``) merge to the same stream
    as memory-mapped parts."""
    sharded = generate_columnar_sharded(
        N_USERS, **sharded_kwargs(n_shards=2, n_workers=1), part_dir=tmp_path
    )
    mapped = ColumnarTrace.concatenate(list(sharded.merged_blocks()))
    loaded = ColumnarTrace.concatenate(list(sharded.merged_blocks(mmap=False)))
    keys = user_time_keys(loaded)
    assert keys == sorted(keys)
    assert loaded.device_pool == mapped.device_pool
    for name, _ in COLUMNS:
        assert np.array_equal(getattr(loaded, name), getattr(mapped, name))


# ----------------------------------------------------------------------
# Shard partitioner properties (Hypothesis)
# ----------------------------------------------------------------------

user_id_lists = st.lists(
    st.integers(min_value=0, max_value=100_000), unique=True, max_size=200
)
shard_counts = st.integers(min_value=1, max_value=16)


def stub_users(user_ids):
    return [SimpleNamespace(user_id=uid) for uid in user_ids]


@given(user_ids=user_id_lists, n_shards=shard_counts)
@settings(max_examples=200, deadline=None)
def test_every_user_in_exactly_one_shard(user_ids, n_shards):
    shards = partition_users(stub_users(user_ids), n_shards)
    assert len(shards) == n_shards
    seen = [u.user_id for shard in shards for u in shard]
    assert sorted(seen) == sorted(user_ids)
    assert len(seen) == len(set(seen))


@given(user_ids=user_id_lists, n_shards=shard_counts)
@settings(max_examples=100, deadline=None)
def test_assignment_independent_of_other_users(user_ids, n_shards):
    """A user's shard is a pure function of (user_id, n_shards): dropping
    other users from the population never moves anyone."""
    full = partition_users(stub_users(user_ids), n_shards)
    placement = {
        u.user_id: index
        for index, shard in enumerate(full)
        for u in shard
    }
    subset = user_ids[::2]
    for index, shard in enumerate(partition_users(stub_users(subset), n_shards)):
        for user in shard:
            assert placement[user.user_id] == index


@given(user_id=st.integers(min_value=0, max_value=10**9),
       n_shards=shard_counts)
@settings(max_examples=100, deadline=None)
def test_shard_of_user_in_range_and_stable(user_id, n_shards):
    shard = shard_of_user(user_id, n_shards)
    assert 0 <= shard < n_shards
    assert shard == shard_of_user(user_id, n_shards)


@given(n_shards=shard_counts)
@settings(max_examples=20, deadline=None)
def test_empty_population_yields_empty_shards(n_shards):
    shards = partition_users([], n_shards)
    assert shards == [[] for _ in range(n_shards)]


def test_shard_count_change_reassigns_only_as_documented():
    """The documented instability: assignment may change with the shard
    count, but for user_id % lcm-compatible counts it follows the modulo
    rule exactly."""
    for n_shards in (1, 2, 4, 8):
        for user_id in range(32):
            assert shard_of_user(user_id, n_shards) == user_id % n_shards


# ----------------------------------------------------------------------
# Validation error paths
# ----------------------------------------------------------------------


def test_invalid_shard_count_rejected(tmp_path):
    with pytest.raises(ValueError, match="n_shards"):
        shard_of_user(3, 0)
    with pytest.raises(ValueError, match="n_shards"):
        generate_columnar_sharded(10, n_shards=0, part_dir=tmp_path)


def test_invalid_worker_count_rejected(tmp_path):
    with pytest.raises(ValueError, match="n_workers"):
        generate_columnar_sharded(
            10, n_shards=2, n_workers=0, part_dir=tmp_path
        )


def test_invalid_batch_records_rejected(tmp_path):
    for batch_records in (0, -5):
        with pytest.raises(ValueError, match="batch_records"):
            generate_columnar_sharded(
                10, n_shards=2, part_dir=tmp_path, batch_records=batch_records
            )
    # Rejected in the parent, before any part is written.
    assert not any(tmp_path.iterdir())


def test_more_shards_than_users_still_equivalent(tmp_path):
    serial = generate_trace(3, options=OPTIONS, seed=5)
    sharded = generate_columnar_sharded(
        3, options=OPTIONS, seed=5, n_shards=8, n_workers=1, part_dir=tmp_path
    )
    merged = merged_records(sharded)
    assert_traces_equivalent(serial, merged, label="shards>users")
    assert merged == serial
