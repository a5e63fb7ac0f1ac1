"""Write-ahead journal v2: crash-consistent durable execution state.

The service's one checkpoint journal is a real WAL (``repro-wal-v2``),
so a crash loses at most the in-flight record and a journal corrupted
after the fact is detected rather than replayed:

* **Length-prefixed, CRC-checksummed records.**  The file is a magic
  header followed by frames of ``(payload length, CRC32, JSON payload)``;
  a record that does not round-trip its checksum can never be replayed
  as state.
* **Explicit fsync points.**  Every append flushes and fsyncs before it
  returns (``fsync=False`` exists for tests only), so one append == one
  *journal epoch*: after epoch ``k`` returns, the first ``k`` records
  are durable no matter where the process dies.
* **Generation headers.**  Each open-for-append writes a generation
  record, so a recovered journal shows how many times the run was
  killed and resumed.
* **Torn-tail recovery.**  Opening scans every frame; a truncated or
  checksum-failing tail is *truncated* in salvage mode (``salvaged_bytes``
  reports how much) and raises a typed
  :class:`~repro.errors.JournalCorruptError` in strict mode.

On top of the frame layer, :class:`DurableRunJournal` checkpoints the
service plane's three durable unit kinds - completed **jobs** (with the
submitting job's content fingerprint, so an edited manifest invalidates
stale entries instead of silently serving them), completed **shards**
(bit-exact stage scores keyed by job fingerprint + stage + chunk
content) and completed scan **launch groups** - and
:class:`ShardCheckpoint` binds it to one job for the resilient
executor's exactly-once resume.

The crash-injection harness (``tools/crashpoint.py``) drives all of it:
an ``epoch_hook`` fires after every durable append, and raising
:class:`CrashPoint` from it models a process kill at that exact fsync
boundary.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import struct
import zlib
from pathlib import Path
from typing import Callable

import numpy as np

from ..cpu.results import FilterScores
from ..errors import JournalCorruptError
from ..hardening import STRICT, IngestPolicy

__all__ = [
    "WAL_SCHEMA",
    "WAL_MAGIC",
    "CrashPoint",
    "WriteAheadJournal",
    "DurableRunJournal",
    "ShardCheckpoint",
    "fsync_file",
    "fsync_dir",
]

WAL_SCHEMA = "repro-wal-v2"

#: File header; a file that does not start with this is not a WAL.
WAL_MAGIC = b"RWALv2\x00\n"

#: Frame header: big-endian (payload length, CRC32-of-payload).
_FRAME = struct.Struct(">II")

#: Upper bound on a sane record; a larger length field is corruption,
#: not a record we have not finished reading.
_MAX_RECORD = 1 << 28


class CrashPoint(BaseException):
    """A simulated process kill, raised from a journal ``epoch_hook``.

    Derives from :class:`BaseException` so no recovery ladder, fallback
    or ``except ReproError`` path can absorb it - exactly like a real
    ``kill -9``, the only state that survives is what the journal had
    already fsynced.
    """

    def __init__(self, epoch: int) -> None:
        super().__init__(f"injected crash at journal epoch {epoch}")
        self.epoch = epoch


def fsync_file(path: str | Path) -> None:
    """fsync a closed file's contents to stable storage."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def fsync_dir(path: str | Path) -> None:
    """fsync a directory, making renames/creations in it durable."""
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class WriteAheadJournal:
    """The frame layer: an append-only log of checksummed JSON records.

    ``resume=True`` recovers existing records (salvage truncates a torn
    or corrupt tail; strict raises :class:`JournalCorruptError` naming
    the bad byte offset); ``resume=False`` starts a fresh log.  Either
    way the journal is then open for append and a generation record is
    written, so :attr:`generation` counts the lifetimes that wrote to
    this file.

    Every append is one *epoch*: frame written, flushed, fsynced, and
    only then is ``epoch_hook(epoch)`` called - the crash-injection
    seam.  A hook that raises kills the process model at a point where
    exactly ``epoch`` records are durable.
    """

    def __init__(
        self,
        path: str | Path,
        resume: bool = True,
        policy: IngestPolicy = STRICT,
        fsync: bool = True,
        epoch_hook: Callable[[int], None] | None = None,
    ) -> None:
        self.path = Path(path)
        self.policy = policy
        self.fsync = fsync
        self.epoch_hook = epoch_hook
        self.epoch = 0           # durable appends by this process
        self.generation = 0      # lifetimes that have written this file
        self.salvaged_bytes = 0  # torn/corrupt tail dropped on recovery
        self._records: list[dict] = []
        if not resume and self.path.exists():
            self.path.unlink()
        if self.path.exists():
            self._recover()
        self._fh = self.path.open("ab")
        if self._fh.tell() == 0:
            self._fh.write(WAL_MAGIC)
            self._flush()
        self.generation += 1
        self.append("generation", generation=self.generation, schema=WAL_SCHEMA)

    # -- recovery ------------------------------------------------------------

    def _corrupt(self, offset: int, reason: str, data_len: int) -> bool:
        """Handle a bad tail at ``offset``; True if recovery may continue."""
        if not self.policy.salvage:
            raise JournalCorruptError(
                f"{self.path}: {reason} at byte {offset} "
                f"(file is {data_len} bytes); recover with the salvage "
                "policy to truncate the damaged tail, or delete the journal"
            )
        self.salvaged_bytes = data_len - offset
        with self.path.open("r+b") as fh:
            fh.truncate(offset)
            fh.flush()
            os.fsync(fh.fileno())
        return True

    def _recover(self) -> None:
        data = self.path.read_bytes()
        if len(data) < len(WAL_MAGIC):
            if WAL_MAGIC.startswith(data):
                # crash before the header finished: an empty journal
                self._corrupt(0, "torn file header", len(data))
                return
            raise JournalCorruptError(
                f"{self.path}: not a {WAL_SCHEMA} journal (bad magic)"
            )
        if not data.startswith(WAL_MAGIC):
            raise JournalCorruptError(
                f"{self.path}: not a {WAL_SCHEMA} journal (bad magic)"
            )
        offset = len(WAL_MAGIC)
        while offset < len(data):
            if offset + _FRAME.size > len(data):
                self._corrupt(offset, "torn record frame", len(data))
                return
            length, crc = _FRAME.unpack_from(data, offset)
            if length > _MAX_RECORD:
                self._corrupt(
                    offset, f"absurd record length {length}", len(data)
                )
                return
            start = offset + _FRAME.size
            end = start + length
            if end > len(data):
                self._corrupt(offset, "torn record payload", len(data))
                return
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                self._corrupt(offset, "record checksum mismatch", len(data))
                return
            try:
                record = json.loads(payload.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                self._corrupt(offset, "undecodable record payload", len(data))
                return
            self._accept(record)
            offset = end

    def _accept(self, record: dict) -> None:
        """Install one durable record into the in-memory state."""
        self._records.append(record)
        if record.get("kind") == "generation":
            self.generation = max(
                self.generation, int(record.get("generation", 0))
            )

    # -- appends -------------------------------------------------------------

    def _flush(self) -> None:
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def append(self, kind: str, **fields) -> dict:
        """Durably append one record; returns it after the fsync point."""
        record = {"kind": kind, **fields}
        payload = json.dumps(record, separators=(",", ":")).encode("utf-8")
        self._fh.write(_FRAME.pack(len(payload), zlib.crc32(payload)))
        self._fh.write(payload)
        self._flush()
        self._accept(record)
        self.epoch += 1
        if self.epoch_hook is not None:
            self.epoch_hook(self.epoch)
        return record

    def close(self) -> None:
        self._fh.close()

    def records(self, kind: str | None = None) -> list[dict]:
        """All recovered + appended records (optionally one kind)."""
        if kind is None:
            return list(self._records)
        return [r for r in self._records if r.get("kind") == kind]

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}({str(self.path)!r}, "
            f"records={len(self._records)}, generation={self.generation})"
        )


def _encode_array(arr: np.ndarray) -> str:
    return base64.b64encode(np.ascontiguousarray(arr).tobytes()).decode()


def _decode_array(text: str, dtype, n: int) -> np.ndarray | None:
    raw = base64.b64decode(text.encode())
    arr = np.frombuffer(raw, dtype=dtype)
    if arr.size != n:
        return None
    return arr.copy()


class DurableRunJournal(WriteAheadJournal):
    """Shard-granular checkpoint journal for search and scan runs.

    Three durable unit kinds ride the frame layer:

    * ``job`` - a completed batch job: its hit digest and counts plus
      the job's content ``fingerprint``, which :meth:`Scheduler.run`
      validates before trusting the entry (an entry without one is
      stale);
    * ``shard`` - one completed stage shard, keyed by
      ``sha256(job fingerprint, stage, chunk content)`` with the
      bit-exact scores inline, so resume replays only unfinished shards;
    * ``group`` - one completed scan launch group (hits + stage stats),
      keyed by library/model fingerprints, database content and the
      library-size E-value context.

    Keys are pure content hashes: an edited manifest, re-pressed model
    or changed database produces different keys and the stale entries
    are simply never consulted again.  ``duplicate_units`` counts unit
    keys journaled more than once - the kill-anywhere harness pins it
    at zero (exactly-once: a journaled unit is never re-executed, so it
    is never re-recorded).
    """

    def __init__(
        self,
        path: str | Path,
        resume: bool = True,
        policy: IngestPolicy = STRICT,
        fsync: bool = True,
        epoch_hook: Callable[[int], None] | None = None,
    ) -> None:
        self._jobs: dict[str, dict] = {}
        self._shards: dict[str, dict] = {}
        self._groups: dict[str, dict] = {}
        self.duplicate_units = 0
        super().__init__(
            path, resume=resume, policy=policy, fsync=fsync,
            epoch_hook=epoch_hook,
        )

    def _accept(self, record: dict) -> None:
        super()._accept(record)
        kind = record.get("kind")
        if kind == "job":
            job_id = record.get("job_id")
            if isinstance(job_id, str):
                self._jobs[job_id] = record
        elif kind == "shard":
            key = record.get("key")
            if isinstance(key, str):
                if key in self._shards:
                    self.duplicate_units += 1
                self._shards[key] = record
        elif kind == "group":
            key = record.get("key")
            if isinstance(key, str):
                if key in self._groups:
                    self.duplicate_units += 1
                self._groups[key] = record

    # -- job entries ----------------------------------------------------------

    def completed(self, job_id: str) -> dict | None:
        """The journal entry for a finished job, or None."""
        entry = self._jobs.get(job_id)
        if entry is not None and entry.get("state") == "done":
            return entry
        return None

    def record(self, job) -> dict:
        """Checkpoint one finished job (call after state becomes DONE)."""
        from .job import job_fingerprint
        from .resilience import result_digest

        results = job.results
        return self.append(
            "job",
            job_id=job.job_id,
            state=job.state.value,
            digest=result_digest(results) if results is not None else "",
            n_targets=results.n_targets if results is not None else 0,
            n_hits=len(results.hits) if results is not None else 0,
            effective_engine=job.effective_engine.value,
            query=job.hmm.name,
            database=job.database.name,
            fingerprint=job_fingerprint(job.hmm, job.database, job.engine),
        )

    def __len__(self) -> int:
        return len(self._jobs)

    # -- shard entries -------------------------------------------------------

    def shard(self, key: str, n: int) -> FilterScores | None:
        """The checkpointed scores for one shard unit, or None.

        A stored record whose row count disagrees with the live chunk is
        treated as absent (content keys make this unreachable short of a
        hash collision, but a size check is cheap insurance against
        handing the pipeline a wrong-shaped array).
        """
        entry = self._shards.get(key)
        if entry is None or int(entry.get("n", -1)) != n:
            return None
        scores = _decode_array(entry.get("scores", ""), np.float64, n)
        overflowed = _decode_array(entry.get("overflowed", ""), np.bool_, n)
        if scores is None or overflowed is None:
            return None
        return FilterScores(scores=scores, overflowed=overflowed)

    def record_shard(
        self, key: str, job_id: str, stage: str, part: FilterScores
    ) -> dict:
        """Durably checkpoint one completed stage shard."""
        return self.append(
            "shard",
            key=key,
            job_id=job_id,
            stage=stage,
            n=int(np.asarray(part.scores).size),
            scores=_encode_array(np.asarray(part.scores, dtype=np.float64)),
            overflowed=_encode_array(
                np.asarray(part.overflowed, dtype=np.bool_)
            ),
        )

    # -- scan launch-group entries -------------------------------------------

    def group(self, key: str) -> dict | None:
        """The checkpointed payload for one scan launch group, or None."""
        return self._groups.get(key)

    def record_group(self, key: str, **payload) -> dict:
        """Durably checkpoint one completed scan launch group."""
        return self.append("group", key=key, **payload)

    # -- accounting ----------------------------------------------------------

    def unit_counts(self) -> dict[str, int]:
        return {
            "jobs": len(self._jobs),
            "shards": len(self._shards),
            "groups": len(self._groups),
            "duplicates": self.duplicate_units,
        }


class ShardCheckpoint:
    """One job's view of the journal for shard-granular exactly-once resume.

    The resilient executor asks :meth:`lookup` before scoring a shard
    and :meth:`commit` after - both keyed by :meth:`shard_key`, a pure
    content hash over the job fingerprint, stage name, model size and
    the chunk's sequences.  Any drift (edited database, different model,
    different chunking) changes the key, so stale checkpoints are
    recomputed rather than served.
    """

    def __init__(
        self, journal: DurableRunJournal, job_id: str, job_fp: str
    ) -> None:
        self.journal = journal
        self.job_id = job_id
        self.job_fp = job_fp

    def shard_key(self, stage: str, profile, chunk) -> str:
        h = hashlib.sha256()
        h.update(b"shard:")
        h.update(self.job_fp.encode())
        h.update(stage.encode())
        h.update(str(getattr(profile, "M", 0)).encode())
        h.update(str(len(chunk)).encode())
        for seq in chunk:
            h.update(seq.name.encode())
            h.update(np.asarray(seq.codes, dtype=np.uint8).tobytes())
        return h.hexdigest()

    def lookup(self, key: str, n: int) -> FilterScores | None:
        return self.journal.shard(key, n)

    def commit(self, key: str, stage: str, part: FilterScores) -> None:
        self.journal.record_shard(key, self.job_id, stage, part)
