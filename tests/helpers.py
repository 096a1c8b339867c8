"""Shared test helpers: the trace canonicalizer.

Equal traces can arrive in different record orders, and a trace that
round-tripped through a TSV file carries floats quantized to the
format's 6 decimal places.  :func:`canonical_lines` maps any of those
representations of the same trace to one canonical form so equivalence
asserts are record-for-record string comparisons:

* every record is serialized with :func:`repro.logs.io.record_to_tsv`,
  which quantizes floats identically whether or not the record already
  visited a file, and covers **every** field including ``session_id``
  (which ``LogRecord.__eq__`` deliberately ignores);
* lines are stable-sorted by the serialized ``(timestamp, user_id)``
  key.  The key is total across users; within one user, equal-timestamp
  records keep their emission order in every representation, so the
  stable sort yields one well-defined order.
"""

from __future__ import annotations

import hashlib
from typing import Iterable

from repro.logs.io import record_to_tsv
from repro.logs.schema import LogRecord


def canonical_lines(records: Iterable[LogRecord]) -> list[str]:
    """Serialize ``records`` into the canonical sorted line list."""
    lines = [record_to_tsv(record) for record in records]
    lines.sort(key=_line_key)
    return lines


def _line_key(line: str) -> tuple[float, int]:
    parts = line.split("\t")
    return (float(parts[0]), int(parts[3]))


def replay_fingerprint(result) -> dict[str, str]:
    """Byte-level identity of one replay: canonical log + telemetry MD5s.

    ``log`` digests the *canonicalized* access log (same canonical form
    as :func:`canonical_lines`, so it is representation-independent);
    ``telemetry`` digests the snapshot's canonical JSON.  Two replays are
    "byte-identical" exactly when these fingerprints are equal — the
    determinism tests and the golden fixture both pin this dict.
    """
    log_digest = hashlib.md5(
        "\n".join(canonical_lines(result.records)).encode()
    ).hexdigest()
    telemetry_digest = hashlib.md5(
        result.snapshot().to_json().encode()
    ).hexdigest()
    return {"log": log_digest, "telemetry": telemetry_digest}


def assert_traces_equivalent(
    expected: Iterable[LogRecord],
    actual: Iterable[LogRecord],
    *,
    label: str = "trace",
) -> None:
    """Assert two traces are record-for-record identical (canonicalized)."""
    expected_lines = canonical_lines(expected)
    actual_lines = canonical_lines(actual)
    assert len(expected_lines) == len(actual_lines), (
        f"{label}: record count differs: "
        f"{len(expected_lines)} != {len(actual_lines)}"
    )
    for index, (want, got) in enumerate(zip(expected_lines, actual_lines)):
        assert want == got, (
            f"{label}: first mismatch at canonical record {index}:\n"
            f"  expected: {want}\n"
            f"  actual:   {got}"
        )
