"""Batch grouping and the persistent hot-response cache.

``Deduplicator.key`` is the one place that decides a request's grouping
key; the proxy builds it at admission. ``duplicate_ratio`` measures a
batch's keys for the adaptive gate, which the proxy does not run.
``Deduplicator.dedup`` groups a whole batch through a dict on that key: one
representative per distinct key, every other member in its group. A key
that repeats across windows may additionally be kept in a persistent LRU
response cache so later requests can skip the backend entirely. Admission
follows the doorkeeper of TinyLFU (Einziger, Friedman and Manes, ACM ToS
2017): a reply is cached only once its key has been seen
``min_group_size`` times, counting only requests the cache did not
answer, so one-off keys never take a cache slot.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Optional

from .soap import SeparatorInValue, SoapRequest, build_parameter_sequence
from .windowing import WindowBatch


def duplicate_ratio(keys: list[Optional[bytes]]) -> float:
    """Share of keys that repeat an earlier key; a None key never repeats."""
    if not keys:
        return 0.0
    distinct = len(set(keys) - {None}) + keys.count(None)
    return (len(keys) - distinct) / len(keys)


@dataclass
class DedupResult:
    batch_id: int
    representatives: list[SoapRequest]
    groups: dict[int, list[int]]  # representative_id -> duplicate request_ids
    duplicate_ratio: float
    cache_hits: list[tuple[int, bytes]]  # (request_id, cached response bytes)
    sequences: dict[int, Optional[bytes]] = field(default_factory=dict)


@dataclass
class ResponseCacheEntry:
    response_bytes: bytes
    stored_at: int  # monotonic ns


class ResponseCache:
    """Serialized responses of hot keys.

    Entries expire ``ttl_ns`` after they were stored; when full, the
    least-recently-hit entry is evicted. The dict's order is the eviction
    order: an entry enters at the end and moves there on each hit, while a
    re-store refreshes its bytes and expiry but not its place.
    """

    def __init__(self, capacity: int = 1024, ttl_ns: int = 100_000_000):
        self.capacity = capacity
        self.ttl_ns = ttl_ns
        self._entries: OrderedDict[bytes, ResponseCacheEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def store(self, seq: bytes, response: bytes, now: int) -> None:
        existing = self._entries.get(seq)
        if existing is not None:
            existing.response_bytes = response
            existing.stored_at = now
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
        self._entries[seq] = ResponseCacheEntry(response, now)

    def lookup(self, seq: bytes, now: int) -> Optional[bytes]:
        entry = self._entries.get(seq)
        if entry is None or now >= entry.stored_at + self.ttl_ns:
            return None
        self._entries.move_to_end(seq)
        return entry.response_bytes


@dataclass
class DedupConfig:
    cache_enabled: bool = False
    cache_ttl_ms: float = 100.0
    cache_capacity: int = 1024
    min_group_size: int = 2  # sightings of a key before its reply is cached


class Deduplicator:
    """Partitions window batches into representatives and duplicate groups."""

    def __init__(self, config: DedupConfig = DedupConfig(),
                 clock: Callable[[], int] = None, denylist=()):
        import time
        self.config = config
        self.clock = clock or time.monotonic_ns
        self.denylist = frozenset(denylist)
        self.cache = ResponseCache(
            capacity=config.cache_capacity,
            ttl_ns=int(config.cache_ttl_ms * 1e6),
        ) if config.cache_enabled else None
        # the doorkeeper: sightings per key, cache hits not counted;
        # cleared when it reaches cache_capacity keys, so it never
        # outgrows the cache itself
        self._sightings: dict[bytes, int] = {}

    def key(self, req: SoapRequest) -> Optional[bytes]:
        """The request's grouping key, or None for a request that must never
        share a backend call: a denylisted operation, or a parameter value
        holding the key separator."""
        if req.operation in self.denylist:
            return None
        try:
            return build_parameter_sequence(req)
        except SeparatorInValue:
            return None

    def sight(self, seq: bytes) -> None:
        """Count one cache miss of seq toward its admission."""
        seen = self._sightings
        if seq not in seen and len(seen) >= self.config.cache_capacity:
            seen.clear()
        seen[seq] = seen.get(seq, 0) + 1

    def dedup(self, batch: WindowBatch) -> DedupResult:
        """Group one batch by key; representative = earliest arrival."""
        keys = [self.key(req) for req in batch.requests]
        representatives: list[SoapRequest] = []
        groups: dict[int, list[int]] = {}
        cache_hits: list[tuple[int, bytes]] = []
        sequences: dict[int, Optional[bytes]] = {}
        rep_by_key: dict[bytes, int] = {}
        now = self.clock()
        for req, seq in zip(batch.requests, keys):
            rid = req.request_id
            sequences[rid] = seq
            if seq is not None:  # None: always its own representative
                if self.cache is not None:
                    cached = self.cache.lookup(seq, now)
                    if cached is not None:
                        cache_hits.append((rid, cached))
                        continue
                    self.sight(seq)
                rep = rep_by_key.setdefault(seq, rid)
                if rep != rid:
                    groups[rep].append(rid)
                    continue
            representatives.append(req)
            groups[rid] = []
        return DedupResult(
            batch_id=batch.batch_id,
            representatives=representatives,
            groups=groups,
            duplicate_ratio=duplicate_ratio(keys),
            cache_hits=cache_hits,
            sequences=sequences,
        )

    def cache_store(self, result: DedupResult, responses: dict[int, bytes]) -> None:
        """Cache each representative's reply whose key has been seen at
        least ``min_group_size`` times, in this batch or earlier ones.

        ``responses`` maps representative ids to 200 reply bytes. A key
        stays counted after it is stored, so once its entry expires the
        next sighting caches it again.
        """
        for rid, response in responses.items():
            seq = result.sequences.get(rid)
            if seq is not None:
                self.offer(seq, response)

    def offer(self, seq: bytes, response: bytes) -> None:
        """Cache a 200 reply for seq once seq has been seen at least
        ``min_group_size`` times."""
        if (self.cache is not None
                and self._sightings.get(seq, 0) >= self.config.min_group_size):
            self.cache.store(seq, response, self.clock())
