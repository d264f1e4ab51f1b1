"""Streams: FIFO execution queues on a simulated device.

Kernels launched into the same stream execute in order; kernels in
different streams may overlap on the device, subject to SM availability.
This is the mechanism the paper's baseline uses ("cuSOLVER called within
16 concurrent GPU streams") and the mechanism whose launch-serialization
cost the batched kernels avoid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque

from .kernel import LaunchRecord

__all__ = ["Stream", "Event"]


@dataclass
class Stream:
    """A FIFO kernel queue identified by an integer id."""

    sid: int
    #: records launched but not yet resolved by the simulator
    queue: Deque[LaunchRecord] = field(default_factory=deque)
    #: completion time of the most recently *resolved* kernel
    tail: float = 0.0
    #: sequence number of the most recent launch into this stream
    last_seq: int = -1
    #: injected stall (seconds) delaying the next resolution of this
    #: stream's kernel chain; consumed (reset to 0) by the simulator
    pending_stall: float = 0.0
    #: events the next launch waits on (``Device.wait_event``)
    waits: list = field(default_factory=list)

    def push(self, rec: LaunchRecord) -> None:
        self.queue.append(rec)
        self.last_seq = rec.seq

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Stream(sid={self.sid}, pending={len(self.queue)})"


@dataclass
class Event:
    """A cross-stream synchronization marker (cudaEvent semantics).

    ``Device.record_event(stream)`` captures the stream's position; a
    kernel launched with ``wait_events=[e]`` cannot start before every
    kernel recorded ahead of ``e`` has completed.  This is the mechanism
    the paper's §VI extension needs to overlap independent kernels (e.g.
    the left and right row interchanges) on separate streams.
    """

    stream: int
    #: sequence number of the last launch in the stream at record time
    #: (-1 = nothing recorded: already complete)
    seq: int = -1
    #: completion time, filled in by the simulator (NaN until resolved)
    completed_at: float = float("nan")

    @property
    def resolved(self) -> bool:
        return self.completed_at == self.completed_at  # not NaN
