"""Fixed-length time-window batching of inbound requests.

Requests admitted during one window form a batch ("current collection")
that is released downstream when the window closes, or early when the
batch reaches max_batch_size. Windows are aligned to the monotonic clock
at collector start; wall-clock time is never used.
"""

from __future__ import annotations

import queue
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .soap import SoapRequest


class AdmitResult(Enum):
    ACCEPTED = "accepted"
    OVERFLOWED = "overflowed"


@dataclass
class WindowBatch:
    batch_id: int
    window_start: int  # monotonic ns
    window_end: int
    requests: list[SoapRequest] = field(default_factory=list)


class WindowCollector:
    """Collects requests into contiguous window batches.

    Not thread-safe: admit and flush run on one thread (the proxy's event
    loop). Closed batches go to ``out_queue``; when it is full, the
    incoming request overflows so the caller can bypass the optimizer
    instead of dropping.
    """

    def __init__(
        self,
        window_ns: int,
        max_batch_size: int,
        queue_depth: int,
        start_ns: Optional[int] = None,
    ):
        if window_ns <= 0:
            raise ValueError("window must be positive")
        self.window_ns = window_ns
        self.max_batch_size = max_batch_size
        self.out_queue: "queue.Queue[WindowBatch]" = queue.Queue(maxsize=queue_depth)
        self._next_batch_id = 0
        self._epoch = start_ns if start_ns is not None else time.monotonic_ns()
        self._win_start = self._epoch
        self._win_end = self._epoch + window_ns
        self._pending: list[SoapRequest] = []
        self.overflowed = 0
        self.flushed_batches = 0

    def _aligned_end(self, now: int) -> int:
        k = (now - self._epoch) // self.window_ns + 1
        return self._epoch + k * self.window_ns

    def _emit(self, close_at: int, block: bool) -> bool:
        """Close the open window at close_at; returns False if queue full."""
        if self._pending:
            batch = WindowBatch(
                batch_id=self._next_batch_id,
                window_start=self._win_start,
                window_end=close_at,
                requests=self._pending,
            )
            try:
                self.out_queue.put(batch, block=block)
            except queue.Full:
                return False
            self._next_batch_id += 1
            self.flushed_batches += 1
            self._pending = []
        self._win_start = close_at
        self._win_end = self._aligned_end(close_at)
        return True

    def _roll(self, now: int, block: bool) -> bool:
        if now < self._win_end:
            return True
        if self._pending:
            if not self._emit(self._win_end, block):
                return False
        # fast-forward over any empty windows up to the slot containing now
        if now >= self._win_end:
            self._win_end = self._aligned_end(now)
            self._win_start = self._win_end - self.window_ns
        return True

    def admit(self, req: SoapRequest, now: int) -> AdmitResult:
        self._roll(now, block=False)
        if len(self._pending) >= self.max_batch_size:
            # forced early flush; new request opens the next window
            if not self._emit(now, block=False):
                self.overflowed += 1
                return AdmitResult.OVERFLOWED
        self._pending.append(req)
        return AdmitResult.ACCEPTED

    @property
    def open_window_end(self) -> Optional[int]:
        """End (monotonic ns) of the window that holds admitted requests not
        yet flushed; None while no request waits."""
        return self._win_end if self._pending else None

    def flush(self, now: int) -> None:
        """Timer entry point: close every window that ended at or before now.

        Blocks on a full downstream queue (backpressure on the caller that
        owns the timer).
        """
        self._roll(now, block=True)
