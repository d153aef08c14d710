"""Atomic, checksummed service snapshots (crash recovery).

PR 7 showed what the warm shared store is worth: a repeated top-k decision
costs ~0 logical steps against 52 cold ones.  A service restart used to throw
that away.  This module persists the warm state — the engine's shared-lineage
cache (store segment + view roots) and every standing subscription — so a
killed-and-restarted server re-decides warm queries with the same ≤1-step
repeat as before the crash.

File format (version 1)::

    b"REPROSNAP1\\n"            magic, 11 bytes
    8-byte big-endian length    of the payload that follows
    32-byte SHA-256 digest      of the payload
    payload                     pickle of the snapshot dict

Writes are atomic: the payload goes to a temp file in the destination
directory, is flushed and fsynced, and only then renamed over the target
(``os.replace``) — a crash mid-write leaves the previous snapshot intact, and
a crash mid-rename is resolved by the filesystem to one version or the other.
Reads verify magic, length, and digest; any mismatch (truncation, bit rot, a
foreign file) raises :class:`repro.errors.SnapshotError` — the service
catches it at boot, warns, and starts cold rather than crashing.

Snapshots use :mod:`pickle` because the store segment is a pickled set of
flat columns (:meth:`repro.prob.sharedag.SharedLineageStore.export_segment`);
the checksum guards integrity, not authenticity — load snapshots only from
paths the operator controls, like any pickle.  The ``snapshot.write`` fault
seam fires before the temp file is renamed, so an injected write failure
never clobbers the previous snapshot.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from typing import Optional

from repro.errors import SnapshotError
from repro.faults import fault_point

__all__ = ["MAGIC", "write_snapshot", "read_snapshot"]

MAGIC = b"REPROSNAP1\n"
_DIGEST_BYTES = 32
_LENGTH_BYTES = 8


def write_snapshot(path: str, payload: dict) -> int:
    """Atomically write ``payload`` to ``path``; returns the payload size.

    Raises :class:`repro.errors.SnapshotError` when the payload cannot be
    pickled or the write/rename fails; the previous snapshot (if any) is
    left untouched and the temp file is removed.
    """
    try:
        body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as error:
        raise SnapshotError(f"snapshot payload is not picklable: {error!r}") from error
    digest = hashlib.sha256(body).digest()
    directory = os.path.dirname(os.path.abspath(path)) or "."
    handle = None
    temp_path: Optional[str] = None
    try:
        fault_point("snapshot.write")
        fd, temp_path = tempfile.mkstemp(
            prefix=".repro_snapshot_", dir=directory
        )
        handle = os.fdopen(fd, "wb")
        handle.write(MAGIC)
        handle.write(len(body).to_bytes(_LENGTH_BYTES, "big"))
        handle.write(digest)
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        handle = None
        os.replace(temp_path, path)
        temp_path = None
        return len(body)
    except SnapshotError:
        raise
    except Exception as error:
        raise SnapshotError(f"snapshot write to {path!r} failed: {error!r}") from error
    finally:
        if handle is not None:
            try:
                handle.close()
            except Exception:
                pass
        if temp_path is not None:
            try:
                os.remove(temp_path)
            except OSError:
                pass


def read_snapshot(path: str) -> dict:
    """Read and verify a snapshot; raises :class:`SnapshotError` on any defect.

    Detects: missing file, short/garbled header, a length prefix that does
    not match the bytes on disk (truncation), and a digest mismatch
    (corruption).  Only a fully verified payload is unpickled.
    """
    try:
        with open(path, "rb") as handle:
            blob = handle.read()
    except OSError as error:
        raise SnapshotError(f"snapshot {path!r} unreadable: {error!r}") from error
    header = len(MAGIC) + _LENGTH_BYTES + _DIGEST_BYTES
    if len(blob) < header or not blob.startswith(MAGIC):
        raise SnapshotError(f"snapshot {path!r} has a missing or garbled header")
    length = int.from_bytes(blob[len(MAGIC) : len(MAGIC) + _LENGTH_BYTES], "big")
    digest = blob[len(MAGIC) + _LENGTH_BYTES : header]
    body = blob[header:]
    if len(body) != length:
        raise SnapshotError(
            f"snapshot {path!r} is truncated: header promises {length} payload "
            f"byte(s), file holds {len(body)}"
        )
    if hashlib.sha256(body).digest() != digest:
        raise SnapshotError(f"snapshot {path!r} failed its checksum")
    try:
        return pickle.loads(body)
    except Exception as error:
        raise SnapshotError(
            f"snapshot {path!r} passed its checksum but failed to unpickle: {error!r}"
        ) from error
