import queue

from semproxy.soap import SoapRequest
from semproxy.windowing import AdmitResult, WindowCollector

MS = 1_000_000  # ns


def req(rid, at_ns):
    return SoapRequest(rid, at_ns, b"", "Search", (str(rid),), 0)


def make(window_ms=2, max_batch=4096, depth=16, start=0):
    return WindowCollector(
        window_ns=window_ms * MS, max_batch_size=max_batch,
        queue_depth=depth, start_ns=start)


def drain(c):
    out = []
    while True:
        try:
            out.append(c.out_queue.get_nowait())
        except queue.Empty:
            return out


class TestWindowing:
    def test_same_window_flushed_together(self):
        c = make(window_ms=2)
        c.admit(req(1, int(0.5 * MS)), int(0.5 * MS))
        c.admit(req(2, int(1.5 * MS)), int(1.5 * MS))
        c.flush(2 * MS)
        (batch,) = drain(c)
        assert [r.request_id for r in batch.requests] == [1, 2]
        assert batch.window_start == 0 and batch.window_end == 2 * MS

    def test_late_request_opens_next_window(self):
        c = make(window_ms=2)
        c.admit(req(1, int(0.5 * MS)), int(0.5 * MS))
        c.admit(req(2, int(2.1 * MS)), int(2.1 * MS))
        c.flush(4 * MS)
        batches = drain(c)
        assert [[r.request_id for r in b.requests] for b in batches] == [[1], [2]]

    def test_thousand_requests_one_batch(self):
        c = make(window_ms=2)
        for i in range(1000):
            assert c.admit(req(i, 1000 + i), 1000 + i) is AdmitResult.ACCEPTED
        c.flush(2 * MS)
        (batch,) = drain(c)
        assert len(batch.requests) == 1000

    def test_empty_window_emits_nothing(self):
        c = make()
        c.flush(10 * MS)
        assert drain(c) == []

    def test_single_arrival(self):
        c = make()
        c.admit(req(1, 100), 100)
        c.flush(2 * MS)
        (batch,) = drain(c)
        assert len(batch.requests) == 1

    def test_forced_flush_at_max_batch_size(self):
        c = make(window_ms=100, max_batch=3)
        for i in range(4):
            c.admit(req(i, i + 1), i + 1)
        batches = drain(c)
        assert len(batches) == 1
        assert [r.request_id for r in batches[0].requests] == [0, 1, 2]
        c.flush(100 * MS)
        (tail,) = drain(c)
        assert [r.request_id for r in tail.requests] == [3]

    def test_overflow_bypasses_when_queue_full(self):
        c = make(window_ms=100, max_batch=1, depth=1)
        assert c.admit(req(1, 1), 1) is AdmitResult.ACCEPTED
        assert c.admit(req(2, 2), 2) is AdmitResult.ACCEPTED  # forces flush of [1]
        assert c.admit(req(3, 3), 3) is AdmitResult.OVERFLOWED  # queue is full
        assert c.overflowed == 1

    def test_partition_property(self):
        import random
        rng = random.Random(5)
        c = make(window_ms=2, depth=10_000)
        admitted = []
        now = 0
        for i in range(5000):
            now += rng.randint(0, int(0.3 * MS))
            r = req(i, now)
            if c.admit(r, now) is AdmitResult.ACCEPTED:
                admitted.append(r.request_id)
        c.flush(now + 2 * MS)
        batches = drain(c)
        flushed = [r.request_id for b in batches for r in b.requests]
        assert flushed == admitted
        # batch ids strictly increase; windows disjoint; containment holds
        for a, b in zip(batches, batches[1:]):
            assert b.batch_id > a.batch_id
            assert b.window_start >= a.window_end
        for b in batches:
            assert b.window_end - b.window_start <= 2 * MS
            for r in b.requests:
                assert b.window_start <= r.arrival_time < b.window_end

    def test_latency_bound(self):
        # a request never sits in the stage longer than one window plus the
        # next flush tick: < 2x window length
        c = make(window_ms=2)
        c.admit(req(1, 1), 1)
        c.flush(2 * MS)  # timer tick at the boundary
        (batch,) = drain(c)
        assert batch.window_end - batch.requests[0].arrival_time < 2 * 2 * MS

    def test_flush_as_of_end_before_end(self):
        # a timer that fires early closes its window as of the window's end
        c = make(window_ms=2)
        c.admit(req(1, int(0.5 * MS)), int(0.5 * MS))
        c.flush(2 * MS)  # fired at 1.6 ms, flushed as of the 2 ms end
        (first,) = drain(c)
        assert [r.request_id for r in first.requests] == [1]
        assert first.window_end == 2 * MS
        # admitted after that close but before the end: the next window
        c.admit(req(2, int(1.8 * MS)), int(1.8 * MS))
        assert c.open_window_end == 4 * MS
        c.flush(4 * MS)
        (second,) = drain(c)
        assert [r.request_id for r in second.requests] == [2]
        assert c.flushed_batches == 2
