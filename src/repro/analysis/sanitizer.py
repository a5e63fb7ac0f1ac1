"""Warp-model sanitizer: a cuda-memcheck analog for the Python warp
simulator.

The warp kernels in :mod:`repro.kernels` simulate CUDA warp-synchronous
execution: shared-memory score rows laid out for 1-transaction access
(32 consecutive bytes for the MSV u8 row, 32 consecutive i16 cells for
the Viterbi rows), double-buffered strips where each strip's dependency
cells must be loaded *before* the store that overwrites them, and
shuffle reductions whose inactive lanes must hold the reduction
neutral.  The functional tests sample these invariants; the sanitizer
checks them on every simulated access.

Enabled via ``REPRO_SANITIZE=1`` (or ``strict`` to raise on the first
violation) or per-call ``sanitize=True``; off by default and bit-exact
no-op when disabled.  Kernels attach the resulting
:class:`SanitizerReport` to ``KernelCounters.sanitizer`` so it flows
through metrics and the observability layer.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..errors import SanitizerError
from ..gpu.shared_memory import transactions_for_access

ENV_FLAG = "REPRO_SANITIZE"

_MAX_EVENTS = 32


@dataclass(frozen=True)
class SanitizerReport:
    """Immutable summary of one sanitized kernel run (or a merge)."""

    accesses: int = 0
    transactions: int = 0
    bank_conflicts: int = 0
    conflict_extra: int = 0
    hazards: int = 0
    reduction_checks: int = 0
    lane_garbage: int = 0
    events: Tuple[str, ...] = ()

    @property
    def clean(self) -> bool:
        return not (self.bank_conflicts or self.hazards or self.lane_garbage)

    def merge(self, other: "SanitizerReport") -> "SanitizerReport":
        return SanitizerReport(
            accesses=self.accesses + other.accesses,
            transactions=self.transactions + other.transactions,
            bank_conflicts=self.bank_conflicts + other.bank_conflicts,
            conflict_extra=self.conflict_extra + other.conflict_extra,
            hazards=self.hazards + other.hazards,
            reduction_checks=self.reduction_checks + other.reduction_checks,
            lane_garbage=self.lane_garbage + other.lane_garbage,
            events=(self.events + other.events)[:_MAX_EVENTS],
        )

    def as_dict(self) -> dict:
        return {
            "accesses": self.accesses,
            "transactions": self.transactions,
            "bank_conflicts": self.bank_conflicts,
            "conflict_extra": self.conflict_extra,
            "hazards": self.hazards,
            "reduction_checks": self.reduction_checks,
            "lane_garbage": self.lane_garbage,
            "events": list(self.events),
        }

    def summary(self) -> str:
        status = "clean" if self.clean else "VIOLATIONS"
        return (
            f"sanitizer: {status} — {self.accesses} accesses / "
            f"{self.transactions} transactions, "
            f"{self.bank_conflicts} conflicting ({self.conflict_extra} extra), "
            f"{self.hazards} read-before-write hazards, "
            f"{self.lane_garbage}/{self.reduction_checks} "
            "reductions with inactive-lane garbage"
        )


class WarpSanitizer:
    """Records simulated shared-memory traffic for one kernel launch.

    The kernels call :meth:`begin_row` at the top of each row sweep
    (which resets the written-cell set used for hazard detection),
    :meth:`shared_load` / :meth:`shared_store` once per strip with the
    per-lane byte addresses of the access, and :meth:`check_reduction`
    before each shuffle/shared-memory reduction.  Addresses are byte
    offsets into the simulated shared-memory bank space; the bank
    model matches :func:`repro.gpu.shared_memory.transactions_for_access`.
    """

    def __init__(self, strict: bool = False, banks: int = 32):
        self.strict = strict
        self.banks = banks
        self.accesses = 0
        self.transactions = 0
        self.bank_conflicts = 0
        self.conflict_extra = 0
        self.hazards = 0
        self.reduction_checks = 0
        self.lane_garbage = 0
        self._events: List[str] = []
        self._written: Set[int] = set()
        self._row_label = ""

    # -- lifecycle -----------------------------------------------------

    def begin_row(self, label: str) -> None:
        """Start a new row sweep; resets the read-before-write tracker."""
        self._written.clear()
        self._row_label = label

    def report(self) -> SanitizerReport:
        return SanitizerReport(
            accesses=self.accesses,
            transactions=self.transactions,
            bank_conflicts=self.bank_conflicts,
            conflict_extra=self.conflict_extra,
            hazards=self.hazards,
            reduction_checks=self.reduction_checks,
            lane_garbage=self.lane_garbage,
            events=tuple(self._events[:_MAX_EVENTS]),
        )

    # -- access hooks --------------------------------------------------

    def shared_load(
        self,
        byte_addresses: Sequence[int],
        label: str,
        dependency: bool = False,
    ) -> None:
        """Record one warp-wide load.

        ``dependency=True`` marks a double-buffer dependency load: the
        cells the *next* strip needs that the current strip's store is
        about to overwrite.  Loading them after the overwrite is the
        read-before-write hazard the sanitizer exists to catch.
        """
        addrs = self._check_bank_conflict(byte_addresses, label, "load")
        if dependency:
            clobbered = [a for a in addrs if a in self._written]
            if clobbered:
                self.hazards += 1
                self._event(
                    f"read-before-write hazard at {label} "
                    f"(row {self._row_label}): {len(clobbered)} dependency "
                    f"cell(s) already overwritten this sweep, "
                    f"first byte {clobbered[0]}"
                )

    def shared_store(self, byte_addresses: Sequence[int], label: str) -> None:
        """Record one warp-wide store and mark the cells written."""
        addrs = self._check_bank_conflict(byte_addresses, label, "store")
        self._written.update(addrs)

    def check_reduction(
        self,
        lanes: np.ndarray,
        n_valid: int,
        neutral: Union[int, float],
        label: str,
    ) -> None:
        """Verify inactive lanes of a reduction input hold the neutral.

        ``lanes`` has the warp dimension trailing (…, 32).  A butterfly
        shuffle reduction mixes every lane into the result, so inactive
        lanes holding anything but the reduction neutral corrupts the
        score — the simulator analog of reading inactive-lane garbage
        through ``__shfl_xor``.
        """
        self.reduction_checks += 1
        lanes = np.asarray(lanes)
        width = lanes.shape[-1]
        if n_valid >= width:
            return
        tail = lanes[..., n_valid:]
        if not np.all(tail == neutral):
            self.lane_garbage += 1
            bad = np.asarray(tail[tail != neutral]).ravel()
            self._event(
                f"inactive-lane garbage at {label} "
                f"(row {self._row_label}): lanes >= {n_valid} should hold "
                f"neutral {neutral}, found {bad[0]!r}"
            )

    # -- internals -----------------------------------------------------

    def _check_bank_conflict(
        self, byte_addresses: Sequence[int], label: str, kind: str
    ) -> List[int]:
        addrs = [int(a) for a in np.asarray(byte_addresses).ravel()]
        self.accesses += 1
        n_tx = transactions_for_access(addrs, banks=self.banks)
        words = {a // 4 for a in addrs}
        distinct_banks = len({w % self.banks for w in words})
        self.transactions += n_tx
        extra = n_tx - distinct_banks
        if extra > 0:
            self.bank_conflicts += 1
            self.conflict_extra += extra
            self._event(
                f"bank conflict at {label} (row {self._row_label}, {kind}): "
                f"{n_tx} transactions for {distinct_banks} banks "
                f"(+{extra} replays)"
            )
        return addrs

    def _event(self, message: str) -> None:
        if len(self._events) < _MAX_EVENTS:
            self._events.append(message)
        if self.strict:
            raise SanitizerError(message)


def env_enabled() -> Optional[str]:
    """Return the REPRO_SANITIZE mode string, or None when off."""
    raw = os.environ.get(ENV_FLAG, "").strip().lower()
    if raw in ("", "0", "false", "no", "off"):
        return None
    return raw


def resolve_sanitizer(
    sanitize: Union[None, bool, WarpSanitizer]
) -> Optional[WarpSanitizer]:
    """Resolve a kernel's ``sanitize`` argument to an armed sanitizer.

    ``None`` defers to the ``REPRO_SANITIZE`` environment variable, so
    the sanitizer reaches kernels launched through the service/executor
    path without widening any interface.  ``True`` arms a fresh
    sanitizer; a :class:`WarpSanitizer` instance is used as-is (the
    caller wants the accumulated report).
    """
    if isinstance(sanitize, WarpSanitizer):
        return sanitize
    if sanitize is True:
        return WarpSanitizer()
    if sanitize is False:
        return None
    mode = env_enabled()
    if mode is None:
        return None
    return WarpSanitizer(strict=(mode == "strict"))
