"""Execution timeline: the ordered record of priced kernels and copies.

Every traversal accumulates a :class:`Timeline`; benches and the adaptive
runtime's telemetry read per-kernel breakdowns from it, and its totals
are the simulated times the reproduction reports (the paper's results
"include CPU processing, GPU processing and CPU-GPU transfer times").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.gpusim.kernel import KernelCost, KernelTally
from repro.gpusim.transfer import TransferRecord

__all__ = ["KernelRecord", "Timeline"]

#: ``sum()`` over floats is compensated (Neumaier) from Python 3.12 on
#: and plain left-to-right before; the running totals follow the
#: interpreter so they stay bit-identical to ``sum()`` on either.
_COMPENSATED_SUM = sum([1.0, 1e100, 1.0, -1e100]) != 0.0


class _RunningSum:
    """``sum()`` of a growing list of floats, kept in O(1) per item:
    :attr:`value` after each :meth:`add` equals ``sum()`` over every item
    added so far, bit for bit."""

    __slots__ = ("total", "comp")

    def __init__(self, items=()):
        self.total = 0.0
        self.comp = 0.0
        for x in items:
            self.add(x)

    def add(self, x: float) -> None:
        if _COMPENSATED_SUM:
            t = self.total + x
            if abs(self.total) >= abs(x):
                self.comp += (self.total - t) + x
            else:
                self.comp += (x - t) + self.total
            self.total = t
        else:
            self.total += x

    @property
    def value(self) -> float:
        if self.comp and math.isfinite(self.comp):
            return self.total + self.comp
        return self.total


@dataclass(frozen=True)
class KernelRecord:
    """One kernel execution: tally, priced cost, and traversal metadata."""

    iteration: int
    tally: KernelTally
    cost: KernelCost
    variant: Optional[str] = None

    @property
    def seconds(self) -> float:
        return self.cost.seconds


@dataclass
class Timeline:
    """Accumulates kernels, transfers and host-side costs in order."""

    kernels: List[KernelRecord] = field(default_factory=list)
    transfers: List[TransferRecord] = field(default_factory=list)
    host_seconds: float = 0.0
    # Running totals of the records' seconds (O(1) reads; the serve loop
    # reads total_seconds on every pump).  Kernels and transfers must be
    # added through add_kernel/add_transfer to keep them current.
    _gpu: _RunningSum = field(init=False, repr=False, compare=False)
    _transfer: _RunningSum = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._gpu = _RunningSum(k.seconds for k in self.kernels)
        self._transfer = _RunningSum(t.seconds for t in self.transfers)

    def add_kernel(
        self,
        iteration: int,
        tally: KernelTally,
        cost: KernelCost,
        variant: Optional[str] = None,
    ) -> KernelRecord:
        record = KernelRecord(iteration=iteration, tally=tally, cost=cost, variant=variant)
        self.kernels.append(record)
        self._gpu.add(record.seconds)
        return record

    def add_transfer(self, record: TransferRecord) -> None:
        self.transfers.append(record)
        self._transfer.add(record.seconds)

    def add_host_seconds(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError("host time cannot be negative")
        self.host_seconds += seconds

    # ------------------------------------------------------------------
    # Totals
    # ------------------------------------------------------------------

    @property
    def gpu_seconds(self) -> float:
        return self._gpu.value

    @property
    def transfer_seconds(self) -> float:
        return self._transfer.value

    @property
    def total_seconds(self) -> float:
        return self.gpu_seconds + self.transfer_seconds + self.host_seconds

    @property
    def num_launches(self) -> int:
        return len(self.kernels)

    def seconds_by_kernel(self) -> Dict[str, float]:
        """Total simulated seconds grouped by kernel name prefix."""
        out: Dict[str, float] = {}
        for record in self.kernels:
            key = record.tally.name.split("[")[0]
            out[key] = out.get(key, 0.0) + record.seconds
        return out

    def seconds_by_variant(self) -> Dict[str, float]:
        """Total simulated GPU seconds grouped by implementation variant."""
        out: Dict[str, float] = {}
        for record in self.kernels:
            key = record.variant or "-"
            out[key] = out.get(key, 0.0) + record.seconds
        return out

    def iter_iterations(self) -> Iterator[int]:
        seen = set()
        for record in self.kernels:
            if record.iteration not in seen:
                seen.add(record.iteration)
                yield record.iteration
