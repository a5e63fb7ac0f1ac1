"""The pressed library catalog: durable, content-keyed model storage.

``hmmpress`` for this reproduction.  A :class:`LibraryCatalog` holds one
:class:`CatalogEntry` per model - the model itself, its content
fingerprint, its quantized scoring tables and (lazily computed, then
never again) its stage calibration - and can persist all of it to an
on-disk store with a versioned index::

    <store>/index.json            repro-catalog-v1: settings + entries
    <store>/models/<fp>.hmm       canonical flat-text model
    <store>/tables/<fp>.npz       quantized MSV/Viterbi scoring tables

Calibration dominates library construction (it scores hundreds of
background sequences per model), so the economics mirror
:class:`~repro.service.cache.PipelineCache` promoted to durable
storage: pressing a library pays calibration once **ever** - every
later :meth:`LibraryCatalog.load` rebuilds pipelines from the stored
calibration with *zero* recalibrations (counter-pinned by the test
suite), and re-pressing reuses every entry whose fingerprint still
matches.  Invalidation is content-keyed: a model whose fingerprint
changed is stale and is re-pressed (press) or rejected/quarantined
(load); stored scoring tables are verified bit-identical against
tables rebuilt from the model text, so silent store corruption is
caught at load time.

Models are **canonicalized** on entry to the catalog - round-tripped
through the flat text format - so a freshly pressed in-memory catalog
and one reloaded from disk score every sequence bit-identically.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from ..errors import CatalogError, FormatError, PipelineError
from ..hardening import IngestPolicy, RecordQuarantine, STRICT
from ..hmm.fingerprint import hmm_fingerprint, seed_from_fingerprint
from ..hmm.hmmfile import dumps_hmm, loads_hmm
from ..hmm.plan7 import Plan7HMM
from ..pipeline.calibrate import PipelineCalibration
from ..pipeline.pipeline import HmmsearchPipeline, PipelineThresholds
from ..pipeline.stats import ScoreDistribution
from ..service.wal import fsync_dir

__all__ = ["CATALOG_SCHEMA", "PressSettings", "CatalogEntry", "LibraryCatalog"]

CATALOG_SCHEMA = "repro-catalog-v1"


@dataclass(frozen=True)
class PressSettings:
    """Pipeline-construction parameters shared by every catalog entry.

    Part of the store's identity: loading a store returns exactly the
    settings it was pressed with, so a catalog's calibrations are always
    consistent with its pipelines.  The defaults are smaller than a
    lone :class:`~repro.pipeline.pipeline.HmmsearchPipeline`'s (L=350,
    200/50 calibration samples) because a library calibrates every
    model it scans.
    """

    L: int = 350
    multihit: bool = True
    seed: int = 42
    calibration_filter_sample: int = 200
    calibration_forward_sample: int = 50

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PressSettings":
        return cls(
            L=int(data["L"]),
            multihit=bool(data["multihit"]),
            seed=int(data["seed"]),
            calibration_filter_sample=int(data["calibration_filter_sample"]),
            calibration_forward_sample=int(data["calibration_forward_sample"]),
        )


def _calibration_to_dict(cal: PipelineCalibration) -> dict:
    def dist(d: ScoreDistribution) -> dict:
        return {"kind": d.kind, "location": d.location, "lam": d.lam}

    return {
        "msv": dist(cal.msv),
        "vit": dist(cal.vit),
        "fwd": dist(cal.fwd),
        "L": cal.L,
        "null_length_nats": cal.null_length_nats,
        "sample_size": cal.sample_size,
    }


def _calibration_from_dict(data: dict) -> PipelineCalibration:
    def dist(d: dict) -> ScoreDistribution:
        return ScoreDistribution(
            kind=str(d["kind"]),
            location=float(d["location"]),
            lam=float(d["lam"]),
        )

    return PipelineCalibration(
        msv=dist(data["msv"]),
        vit=dist(data["vit"]),
        fwd=dist(data["fwd"]),
        L=int(data["L"]),
        null_length_nats=float(data["null_length_nats"]),
        sample_size=int(data["sample_size"]),
    )


class CatalogEntry:
    """One pressed model: canonical HMM, fingerprint, tables, calibration.

    Calibration is computed lazily on first use (seeded from the model's
    *content*, never its library position) and cached forever; entries
    reloaded from a store arrive with their calibration attached and
    never calibrate at all.  :meth:`pipeline` hands out fully prepared
    :class:`HmmsearchPipeline` objects that reuse that calibration.
    """

    def __init__(
        self,
        hmm: Plan7HMM,
        settings: PressSettings,
        fingerprint: str | None = None,
        calibration: PipelineCalibration | None = None,
        on_calibrate: Callable[["CatalogEntry"], None] | None = None,
    ) -> None:
        self.hmm = hmm
        self.settings = settings
        self.fingerprint = (
            fingerprint if fingerprint is not None else hmm_fingerprint(hmm)
        )
        self._calibration = calibration
        self._on_calibrate = on_calibrate
        self._pipelines: dict[tuple | None, HmmsearchPipeline] = {}

    @property
    def name(self) -> str:
        return self.hmm.name

    @property
    def M(self) -> int:
        return self.hmm.M

    @property
    def calibrated(self) -> bool:
        return self._calibration is not None

    @property
    def calibration(self) -> PipelineCalibration:
        if self._calibration is None:
            self.pipeline()
        assert self._calibration is not None
        return self._calibration

    def pipeline(
        self, thresholds: PipelineThresholds | None = None
    ) -> HmmsearchPipeline:
        """A prepared pipeline for this model (cached per thresholds).

        The first call on a never-calibrated entry performs the one and
        only calibration; every later call - and every call on a
        store-loaded entry - reuses the stored fit.
        """
        key = (
            None
            if thresholds is None
            else (thresholds.f1, thresholds.f2, thresholds.f3,
                  thresholds.report_evalue)
        )
        pipe = self._pipelines.get(key)
        if pipe is None:
            s = self.settings
            pipe = HmmsearchPipeline(
                self.hmm,
                L=s.L,
                multihit=s.multihit,
                thresholds=thresholds,
                seed=seed_from_fingerprint(self.fingerprint, s.seed),
                calibration_filter_sample=s.calibration_filter_sample,
                calibration_forward_sample=s.calibration_forward_sample,
                calibration=self._calibration,
            )
            if self._calibration is None:
                self._calibration = pipe.calibration
                if self._on_calibrate is not None:
                    self._on_calibrate(self)
            self._pipelines[key] = pipe
        return pipe

    def scoring_tables(self) -> dict[str, np.ndarray]:
        """The quantized MSV/Viterbi tables, flattened for ``.npz``."""
        pipe = self.pipeline()
        out: dict[str, np.ndarray] = {}
        for prefix, prof in (("msv", pipe.byte_profile),
                             ("vit", pipe.word_profile)):
            for f in dataclasses.fields(prof):
                out[f"{prefix}_{f.name}"] = np.asarray(getattr(prof, f.name))
        return out

    def __repr__(self) -> str:
        state = "calibrated" if self.calibrated else "lazy"
        return (
            f"CatalogEntry({self.name!r}, M={self.M}, "
            f"{self.fingerprint[:12]}, {state})"
        )


def _canonical(hmm: Plan7HMM) -> Plan7HMM:
    """Round-trip a model through the flat text format.

    The store keeps models as 9-significant-digit text; canonicalizing
    on press makes the in-memory catalog score bit-identically to one
    reloaded from disk.
    """
    parsed = loads_hmm(dumps_hmm(hmm), source=hmm.name)
    assert parsed is not None  # strict policy: parse errors raise
    return parsed


class LibraryCatalog:
    """An ordered collection of pressed models with durable storage.

    Thread-safe for concurrent pressing and lookup: the entry map and
    the counters sit behind an RLock, while calibration - seconds per
    model - always runs outside it (two racing calibrations of the same
    content produce the same deterministic fit).

    Counters (see :meth:`stats`):

    * ``calibrations`` - full calibrations actually performed;
    * ``entry_hits``   - press requests satisfied by an existing entry;
    * ``invalidated``  - stale entries (content changed) re-pressed;
    * ``corrupt``      - store entries failing integrity verification.
    """

    def __init__(
        self,
        settings: PressSettings | None = None,
        name: str = "library",
    ) -> None:
        self.settings = settings if settings is not None else PressSettings()
        self.name = name
        self._lock = threading.RLock()
        self._entries: dict[str, CatalogEntry] = {}  # guarded-by: _lock
        self.calibrations = 0   # guarded-by: _lock
        self.entry_hits = 0     # guarded-by: _lock
        self.invalidated = 0    # guarded-by: _lock
        self.corrupt = 0        # guarded-by: _lock

    # -- construction --------------------------------------------------------

    def _note_calibration(self, entry: CatalogEntry) -> None:
        with self._lock:
            self.calibrations += 1

    def add(self, hmm: Plan7HMM) -> CatalogEntry:
        """Press one model into the catalog (idempotent by content).

        Re-adding identical content is a hit; re-adding a model whose
        name exists with *different* content invalidates and replaces
        the stale entry.
        """
        hmm = _canonical(hmm)
        fingerprint = hmm_fingerprint(hmm)
        with self._lock:
            existing = self._entries.get(hmm.name)
            if existing is not None:
                if existing.fingerprint == fingerprint:
                    self.entry_hits += 1
                    return existing
                self.invalidated += 1
            entry = CatalogEntry(
                hmm,
                self.settings,
                fingerprint=fingerprint,
                on_calibrate=self._note_calibration,
            )
            self._entries[hmm.name] = entry
        return entry

    def _adopt(self, entry: CatalogEntry) -> None:
        """Install a store-loaded entry (already canonical + calibrated)."""
        with self._lock:
            self._entries[entry.name] = entry

    # -- lookup --------------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def __iter__(self) -> Iterator[CatalogEntry]:
        return iter(self.entries())

    def get(self, name: str) -> CatalogEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise CatalogError(f"catalog {self.name!r} has no model {name!r}")
        return entry

    def entries(self) -> list[CatalogEntry]:
        with self._lock:
            return list(self._entries.values())

    def names(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "calibrations": self.calibrations,
                "entry_hits": self.entry_hits,
                "invalidated": self.invalidated,
                "corrupt": self.corrupt,
            }

    # -- persistence ---------------------------------------------------------

    def save(self, store: str | Path) -> Path:
        """Write the pressed store (models, tables, versioned index).

        Forces any outstanding lazy calibrations first.  Durability
        ordering matters: every ``.hmm``/``.npz`` payload is written
        *and fsynced* before the index is tmp-written, fsynced and
        atomically renamed over ``index.json`` (then the directory is
        fsynced).  A kill at any point therefore leaves either the old
        index or a new index whose referenced artifacts are already on
        stable storage - never a valid-looking index pointing at a
        truncated table (the invariant :func:`repro.scan.fsck.fsck_store`
        verifies).
        """
        store = Path(store)
        (store / "models").mkdir(parents=True, exist_ok=True)
        (store / "tables").mkdir(parents=True, exist_ok=True)
        rows = []
        for entry in self.entries():
            model_file = f"models/{entry.fingerprint}.hmm"
            tables_file = f"tables/{entry.fingerprint}.npz"
            with (store / model_file).open("w", encoding="ascii") as fh:
                fh.write(dumps_hmm(entry.hmm))
                fh.flush()
                os.fsync(fh.fileno())
            with (store / tables_file).open("wb") as fh:
                np.savez(fh, **entry.scoring_tables())
                fh.flush()
                os.fsync(fh.fileno())
            rows.append(
                {
                    "name": entry.name,
                    "M": entry.M,
                    "fingerprint": entry.fingerprint,
                    "model_file": model_file,
                    "tables_file": tables_file,
                    "calibration": _calibration_to_dict(entry.calibration),
                }
            )
        index = {
            "schema": CATALOG_SCHEMA,
            "name": self.name,
            "settings": self.settings.to_dict(),
            "entries": rows,
        }
        tmp = store / "index.json.tmp"
        with tmp.open("w") as fh:
            fh.write(json.dumps(index, indent=2) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        tmp.replace(store / "index.json")
        fsync_dir(store)
        return store

    @classmethod
    def press(
        cls,
        hmms: Iterable[Plan7HMM],
        store: str | Path | None = None,
        settings: PressSettings | None = None,
        name: str = "library",
        policy: IngestPolicy = STRICT,
        quarantine: RecordQuarantine | None = None,
    ) -> "LibraryCatalog":
        """Press a model collection, optionally against a durable store.

        With a ``store``, any existing pressing there is loaded first
        and every model whose content is unchanged reuses its stored
        calibration (``entry_hits``); only new or stale models pay
        calibration, and the store is rewritten afterwards.  Without a
        ``store`` the catalog is in-memory (calibration stays lazy).
        """
        hmms = list(hmms)
        if not hmms:
            raise PipelineError("a model library cannot be empty")
        names = [h.name for h in hmms]
        if len(set(names)) != len(names):
            raise PipelineError("model names in a library must be unique")

        prior: "LibraryCatalog | None" = None
        if store is not None and (Path(store) / "index.json").exists():
            # salvage policy lets a damaged store be re-pressed from
            # scratch instead of blocking the press
            prior = cls.load(store, policy=policy, quarantine=quarantine)

        catalog = cls(settings=settings, name=name)
        for hmm in hmms:
            canonical = _canonical(hmm)
            fingerprint = hmm_fingerprint(canonical)
            reuse = None
            if prior is not None and canonical.name in prior:
                stored = prior.get(canonical.name)
                if (
                    stored.fingerprint == fingerprint
                    and prior.settings == catalog.settings
                ):
                    reuse = stored
            if reuse is not None:
                catalog._adopt(
                    CatalogEntry(
                        reuse.hmm,
                        catalog.settings,
                        fingerprint=reuse.fingerprint,
                        calibration=reuse.calibration,
                        on_calibrate=catalog._note_calibration,
                    )
                )
                with catalog._lock:
                    catalog.entry_hits += 1
            else:
                if prior is not None and canonical.name in prior:
                    with catalog._lock:
                        catalog.invalidated += 1
                catalog.add(canonical)
        if store is not None:
            catalog.save(store)
        return catalog

    @classmethod
    def load(
        cls,
        store: str | Path,
        policy: IngestPolicy = STRICT,
        quarantine: RecordQuarantine | None = None,
    ) -> "LibraryCatalog":
        """Reopen a pressed store with zero recalibration.

        Every entry is integrity-checked: the model file must parse and
        hash back to its recorded fingerprint (else it is **stale**),
        and the stored scoring tables must be bit-identical to tables
        rebuilt from the model text (else it is **corrupt**).  Strict
        policy raises :class:`CatalogError` on the first bad entry;
        salvage quarantines it (kind ``catalog``) and loads the rest.
        """
        store = Path(store)
        index_path = store / "index.json"
        if not index_path.exists():
            raise CatalogError(f"{store}: not a pressed library (no index.json)")
        try:
            index = json.loads(index_path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CatalogError(f"{index_path}: unreadable index: {exc}") from None
        if index.get("schema") != CATALOG_SCHEMA:
            raise CatalogError(
                f"{index_path}: unsupported schema "
                f"{index.get('schema')!r} (expected {CATALOG_SCHEMA})"
            )
        settings = PressSettings.from_dict(index["settings"])
        catalog = cls(settings=settings, name=str(index.get("name", "library")))
        q = quarantine if quarantine is not None else RecordQuarantine()

        def bad(row: dict, reason: str) -> None:
            with catalog._lock:
                catalog.corrupt += 1
            if not policy.salvage:
                raise CatalogError(
                    f"{store}: entry {row.get('name', '?')!r}: {reason}"
                )
            q.add(str(store), 0, str(row.get("name", "?")), reason,
                  kind="catalog")

        for row in index.get("entries", []):
            model_path = store / str(row.get("model_file", ""))
            if not model_path.is_file():
                bad(row, f"missing model file {row.get('model_file')!r}")
                continue
            try:
                hmm = loads_hmm(model_path.read_text(encoding="ascii"),
                                source=str(model_path))
            except FormatError as exc:
                bad(row, f"unparseable model file: {exc}")
                continue
            assert hmm is not None
            fingerprint = hmm_fingerprint(hmm)
            if fingerprint != row.get("fingerprint"):
                with catalog._lock:
                    catalog.invalidated += 1
                if not policy.salvage:
                    raise CatalogError(
                        f"{store}: entry {row.get('name', '?')!r}: stale - "
                        "model content no longer matches the pressed "
                        "fingerprint; re-press the library"
                    )
                q.add(str(store), 0, str(row.get("name", "?")),
                      "stale entry: content changed since pressing",
                      kind="catalog")
                continue
            entry = CatalogEntry(
                hmm,
                settings,
                fingerprint=fingerprint,
                calibration=_calibration_from_dict(row["calibration"]),
                on_calibrate=catalog._note_calibration,
            )
            tables_path = store / str(row.get("tables_file", ""))
            reason = _verify_tables(entry, tables_path)
            if reason is not None:
                bad(row, reason)
                continue
            catalog._adopt(entry)
        return catalog

    @classmethod
    def fsck(cls, store: str | Path, repair: bool = False):
        """Verify a pressed store on disk; optionally repair/quarantine.

        Returns a :class:`~repro.scan.fsck.FsckReport` - missing or
        truncated artifacts, stale or unparseable models, orphans and
        interrupted-save leftovers, each with the action taken.  See
        :func:`repro.scan.fsck.fsck_store` for the repair semantics.
        """
        from .fsck import fsck_store

        return fsck_store(store, repair=repair)

    def __repr__(self) -> str:
        return (
            f"LibraryCatalog({self.name!r}, entries={len(self)}, "
            f"calibrations={self.calibrations})"
        )


def _verify_tables(entry: CatalogEntry, tables_path: Path) -> str | None:
    """Integrity-check stored scoring tables; a reason string if bad.

    The stored tables must be bit-identical to tables rebuilt from the
    (fingerprint-verified) model text - any mismatch means the store
    was corrupted after pressing.
    """
    if not tables_path.is_file():
        return f"missing tables file {tables_path.name!r}"
    try:
        with np.load(tables_path) as stored:
            fresh = entry.scoring_tables()
            if set(stored.files) != set(fresh):
                return "tables file has wrong table set"
            for key, table in fresh.items():
                if not np.array_equal(np.asarray(stored[key]), table):
                    return f"stored table {key!r} differs from model"
    except (ValueError, OSError, KeyError, zipfile.BadZipFile) as exc:
        # BadZipFile: a truncated or bit-flipped .npz (torn write)
        return f"unreadable tables file: {exc}"
    return None
