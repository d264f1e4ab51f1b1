"""Profiler: per-kernel timing records and Nsight-style counters.

Table I of the paper quotes ``cudaStreamSynchronize`` and
``cudaLaunchKernel`` totals from the NVIDIA Nsight profiler to explain why
the batched implementation beats STRUMPACK's fine-grained one.  The
simulated device exposes the same counters so the reproduction can print
the same comparison.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from .kernel import LaunchRecord

__all__ = ["Profiler", "KernelSummary"]


@dataclass
class KernelSummary:
    """Aggregate statistics for one kernel name."""

    name: str
    count: int = 0
    total_time: float = 0.0

    @property
    def mean_time(self) -> float:
        return self.total_time / self.count if self.count else 0.0


@dataclass
class Profiler:
    """Accumulates resolved launch records and host-side counters."""

    records: list[LaunchRecord] = field(default_factory=list)
    launch_count: int = 0
    host_launch_time: float = 0.0
    sync_count: int = 0
    sync_wait_time: float = 0.0
    transfer_count: int = 0
    transfer_time: float = 0.0
    stall_count: int = 0
    stall_time: float = 0.0

    def add_record(self, rec: LaunchRecord) -> None:
        self.records.append(rec)

    def note_launch(self, overhead: float) -> None:
        self.launch_count += 1
        self.host_launch_time += overhead

    def note_sync(self, wait: float) -> None:
        self.sync_count += 1
        self.sync_wait_time += max(wait, 0.0)

    def note_transfer(self, seconds: float) -> None:
        self.transfer_count += 1
        self.transfer_time += seconds

    def note_stall(self, seconds: float) -> None:
        """Record an injected stream stall (fault-injection timing)."""
        self.stall_count += 1
        self.stall_time += max(seconds, 0.0)

    # -- reporting ---------------------------------------------------------
    def by_kernel(self) -> dict[str, KernelSummary]:
        """Per-kernel-name aggregate durations (like an Nsight summary)."""
        out: dict[str, KernelSummary] = {}
        for rec in self.records:
            s = out.setdefault(rec.name, KernelSummary(rec.name))
            s.count += 1
            s.total_time += rec.duration
        return out

    def by_prefix(self, sep: str = ":", *, since: int = 0
                  ) -> dict[str, float]:
        """Total durations grouped by the kernel-name prefix before ``sep``.

        Kernel names follow ``family:detail`` (e.g. ``irrgemm:update``),
        so this gives the Fig 14-style operation breakdown.  ``since``
        keeps the launches whose ``seq`` is at or past it — one call's
        own, given :attr:`~repro.device.Device.launch_seq` at its entry.
        """
        out: dict[str, float] = defaultdict(float)
        for rec in self.records:
            if rec.seq >= since:
                out[rec.name.split(sep, 1)[0]] += rec.duration
        return dict(out)

    def total_kernel_time(self) -> float:
        return sum(rec.duration for rec in self.records)

    def snapshot(self) -> dict[str, float]:
        """Host-side counters in one dict (for diffs across a region)."""
        return {
            "launch_count": self.launch_count,
            "host_launch_time": self.host_launch_time,
            "sync_count": self.sync_count,
            "sync_wait_time": self.sync_wait_time,
            "transfer_count": self.transfer_count,
            "transfer_time": self.transfer_time,
            "stall_count": self.stall_count,
            "stall_time": self.stall_time,
        }

    def clear(self) -> None:
        self.records.clear()
        self.launch_count = 0
        self.host_launch_time = 0.0
        self.sync_count = 0
        self.sync_wait_time = 0.0
        self.transfer_count = 0
        self.transfer_time = 0.0
        self.stall_count = 0
        self.stall_time = 0.0
