"""Simulated-time attribution from public timelines, in exact arithmetic.

Every simulated second a result reports lives in a
:class:`~repro.gpusim.timeline.Timeline`: priced kernels, transfers and
host seconds.  A kernel's price is ``launch overhead + body + atomics``
where the body is ``max(issue, memory)``; the body is charged to
whichever pipeline bound it.  Sums are kept as :class:`fractions.Fraction`
so the components add up to the total exactly, not to within rounding.
Launch and transfer counts come from the timelines alone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Optional

COMPONENTS = ("launch", "issue", "memory", "atomic", "transfer", "host")


class SimLedger:
    """Exact simulated seconds, split by component, plus launch counts."""

    def __init__(self):
        self.parts: Dict[str, Fraction] = {c: Fraction(0) for c in COMPONENTS}
        #: the same seconds summed record by record, independently of
        #: the component split
        self.total = Fraction(0)
        self.launches = 0
        self.transfers = 0
        self.transfer_bytes = 0

    def add_timeline(self, timeline) -> None:
        for record in timeline.kernels:
            cost = record.cost
            seconds = Fraction(cost.seconds)
            launch = Fraction(cost.launch_overhead_seconds)
            atomic = Fraction(cost.atomic_seconds)
            bound = "issue" if cost.issue_seconds >= cost.memory_seconds else "memory"
            self.parts["launch"] += launch
            self.parts["atomic"] += atomic
            self.parts[bound] += seconds - launch - atomic
            self.total += seconds
        self.launches += timeline.num_launches
        for transfer in timeline.transfers:
            self.add_transfer(transfer)
        self.add_host(timeline.host_seconds)

    def add_transfer(self, transfer) -> None:
        self.parts["transfer"] += Fraction(transfer.seconds)
        self.total += Fraction(transfer.seconds)
        self.transfers += 1
        self.transfer_bytes += int(transfer.num_bytes)

    def add_host(self, seconds: float) -> None:
        self.parts["host"] += Fraction(seconds)
        self.total += Fraction(seconds)

    def absorb(self, other: "SimLedger") -> None:
        """Add everything *other* holds to this ledger."""
        for component in COMPONENTS:
            self.parts[component] += other.parts[component]
        self.total += other.total
        self.launches += other.launches
        self.transfers += other.transfers
        self.transfer_bytes += other.transfer_bytes

    def extend(self, timelines: Iterable) -> "SimLedger":
        for timeline in timelines:
            self.add_timeline(timeline)
        return self

    @property
    def seconds(self) -> float:
        return float(self.total)

    def closure_error(self, reported: Optional[float] = None) -> Optional[str]:
        """None when the components sum exactly to the total and the
        total matches the program's own float *reported* figure up to
        float rounding; otherwise a description of the mismatch."""
        if sum(self.parts.values()) != self.total:
            return "simulated components do not sum to the total"
        if reported is not None:
            if abs(float(self.total) - reported) > 1e-9 * max(abs(reported), 1e-12):
                return (f"simulated total {float(self.total)!r} differs from the "
                        f"program's reported {reported!r}")
        return None

    def metrics(self) -> Dict[str, float]:
        out = {f"gpusim.sim_{c}_s": float(self.parts[c]) for c in COMPONENTS}
        out["gpusim.launches"] = self.launches
        out["gpusim.transfers"] = self.transfers
        out["gpusim.transfer_bytes"] = self.transfer_bytes
        return out
