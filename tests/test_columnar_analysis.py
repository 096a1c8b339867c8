"""Columnar fast paths vs. record-path implementations: exact equivalence.

The vectorized sessionization, tallies, intervals and profiles must
recover *identical* results to the per-record reference implementations —
these tests compare them element for element on a generated trace with
mobile, PC and multi-device users.  The record implementations are the
oracle: :func:`analyze_trace` runs only the columnar paths, and
:func:`record_findings` recomputes its findings from the record
functions.  Ordering differs by construction (the
record path walks users in first-appearance order, the columnar path in
ascending ``user_id``), so list comparisons sort both sides on a total
key first.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.activity import fit_activity_model
from repro.core.burstiness import normalized_operating_times
from repro.core.engagement import retrieval_return_curves
from repro.core.report import analyze_trace
from repro.core.session_size import storage_slope_mb, volume_by_ops
from repro.core.sessions import (
    SessionType,
    classify_sessions,
    file_operation_intervals,
    file_operation_intervals_columnar,
    fit_interval_model,
    sessionize,
    sessionize_columnar,
)
from repro.core.usage import profile_users, profile_users_columnar
from repro.logs.columnar import ColumnarTrace, as_columnar
from repro.logs.schema import Direction
from repro.logs.stream import (
    devices_by_user,
    devices_by_user_columnar,
    tally_by_user,
    tally_by_user_columnar,
)
from repro.workload.config import DeviceGroup
from repro.workload.generator import GeneratorOptions, generate_trace
from repro.workload.parallel import generate_columnar_sharded


@pytest.fixture(scope="module")
def records():
    return generate_trace(
        90,
        n_pc_only_users=20,
        options=GeneratorOptions(max_chunks_per_file=4),
        seed=7,
    )


@pytest.fixture(scope="module")
def trace(records):
    return as_columnar(records)


def _session_key(session):
    return (session.user_id, session.records[0].timestamp)


def test_interval_multiset_identical(records, trace):
    record_intervals = file_operation_intervals(records)
    columnar_intervals = file_operation_intervals_columnar(trace)
    assert record_intervals.shape == columnar_intervals.shape
    # Same multiset (user iteration order differs); exact, not approx.
    assert (
        np.sort(record_intervals) == np.sort(columnar_intervals)
    ).all()


def test_sessionize_equivalent(records, trace):
    record_sessions = sorted(sessionize(records), key=_session_key)
    columnar = sessionize_columnar(trace)
    columnar_sessions = columnar.to_sessions()
    assert len(columnar_sessions) == len(record_sessions)
    # Record-for-record equality covers boundaries, membership and order.
    for ours, reference in zip(columnar_sessions, record_sessions):
        assert ours.user_id == reference.user_id
        assert ours.records == reference.records
        assert ours.session_type == reference.session_type


def test_session_aggregates_match_materialized(records, trace):
    columnar = sessionize_columnar(trace)
    sessions = columnar.to_sessions()
    for i, session in enumerate(sessions):
        assert columnar.user_id[i] == session.user_id
        assert columnar.start[i] == session.start
        assert columnar.end[i] == session.end
        assert columnar.n_store_ops[i] == session.n_store_ops
        assert columnar.n_retrieve_ops[i] == session.n_retrieve_ops
        assert columnar.store_volume[i] == session.store_volume
        assert columnar.retrieve_volume[i] == session.retrieve_volume
    assert columnar.session_types() == [s.session_type for s in sessions]


def test_classify_equivalent(records, trace):
    assert sessionize_columnar(trace).classify() == classify_sessions(
        sessionize(records)
    )


def test_tallies_equivalent(records, trace):
    assert tally_by_user_columnar(trace) == tally_by_user(records)


def test_devices_equivalent(records, trace):
    assert devices_by_user_columnar(trace) == devices_by_user(records)


def test_profiles_equivalent(records, trace):
    reference = sorted(profile_users(records), key=lambda p: p.user_id)
    assert profile_users_columnar(trace) == reference


MOBILE_GROUPS = (DeviceGroup.ONE_MOBILE, DeviceGroup.MULTI_MOBILE)


def record_findings(records):
    """:func:`analyze_trace`'s findings, composed from the record functions."""
    mobile = [r for r in records if r.is_mobile]
    interval_model = fit_interval_model(file_operation_intervals(mobile))
    sessions = sessionize(mobile, tau=interval_model.tau)
    profiles = profile_users(records)
    all_sessions = sessionize(records, tau=interval_model.tau)
    bursty = normalized_operating_times(sessions, min_ops=1)
    store_bins = volume_by_ops(sessions, SessionType.STORE_ONLY, max_files=100)
    mobile_profiles = [p for p in profiles if p.group in MOBILE_GROUPS]
    curves = [
        c
        for c in retrieval_return_curves(all_sessions, profiles)
        if c.group in MOBILE_GROUPS
    ]
    return SimpleNamespace(
        interval_model=interval_model,
        session_shares=classify_sessions(sessions),
        burstiness_fraction=float((bursty < 0.1).mean()),
        storage_slope_mb=(
            storage_slope_mb(store_bins) if len(store_bins) >= 2 else float("nan")
        ),
        upload_only_share=sum(
            p.user_type.value == "upload_only" for p in mobile_profiles
        ) / len(mobile_profiles),
        never_retrieve_fraction=sum(
            c.never_fraction * c.n_uploaders for c in curves
        ) / sum(c.n_uploaders for c in curves),
        store_activity=fit_activity_model(mobile, Direction.STORE),
    )


def test_analyze_trace_engines_agree(records, trace):
    """analyze_trace (columnar) == the record-function oracle, whether it
    is handed records or a ColumnarTrace."""
    oracle = record_findings(records)
    for given in (records, trace):
        report = analyze_trace(given, fit_size_model=False)
        assert report.interval_model.tau == oracle.interval_model.tau
        assert report.session_shares == oracle.session_shares
        assert report.burstiness_fraction == oracle.burstiness_fraction
        assert report.upload_only_share == pytest.approx(
            oracle.upload_only_share
        )
        assert report.never_retrieve_fraction == pytest.approx(
            oracle.never_retrieve_fraction
        )
        assert np.isnan(report.storage_slope_mb) == np.isnan(
            oracle.storage_slope_mb
        )
        if not np.isnan(oracle.storage_slope_mb):
            assert report.storage_slope_mb == pytest.approx(
                oracle.storage_slope_mb
            )
        assert report.store_activity.fit.c == pytest.approx(
            oracle.store_activity.fit.c
        )


def test_analyze_trace_accepts_columnar_for_record_engine(trace, records):
    """A ColumnarTrace and its record list give the same report."""
    report = analyze_trace(trace, fit_size_model=False)
    reference = analyze_trace(records, fit_size_model=False)
    assert report.session_shares == reference.session_shares
    assert report.interval_model.tau == reference.interval_model.tau


def test_analyze_trace_rejects_empty_trace():
    for empty in ([], ColumnarTrace.empty()):
        with pytest.raises(ValueError, match="empty trace"):
            analyze_trace(empty)


def merged_trace(sharded) -> ColumnarTrace:
    return ColumnarTrace.concatenate(list(sharded.merged_blocks()))


def test_generate_columnar_sharded_matches_serial(records, tmp_path):
    sharded = generate_columnar_sharded(
        90,
        n_pc_only_users=20,
        options=GeneratorOptions(max_chunks_per_file=4),
        seed=7,
        n_shards=3,
        n_workers=2,
        part_dir=tmp_path,
    )
    assert merged_trace(sharded).to_records() == records


def test_generate_columnar_sharded_single_worker(records, tmp_path):
    sharded = generate_columnar_sharded(
        90,
        n_pc_only_users=20,
        options=GeneratorOptions(max_chunks_per_file=4),
        seed=7,
        n_shards=4,
        n_workers=1,
        part_dir=tmp_path,
    )
    assert merged_trace(sharded).to_records() == records


def test_sessionize_columnar_empty_and_bad_tau(trace):
    empty = sessionize_columnar(ColumnarTrace.empty())
    assert empty.n_sessions == 0
    assert empty.to_sessions() == []
    with pytest.raises(ValueError):
        sessionize_columnar(trace, tau=0.0)
    with pytest.raises(ValueError):
        empty.classify()
