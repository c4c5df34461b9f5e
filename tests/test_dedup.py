import random
from collections import defaultdict

from semproxy.dedup import DedupConfig, Deduplicator, ResponseCache
from semproxy.soap import SoapRequest, build_parameter_sequence
from semproxy.windowing import WindowBatch


def req(rid, params, op="Search"):
    return SoapRequest(rid, rid, b"", op, tuple(params), 0)


def batch(requests, bid=0):
    return WindowBatch(batch_id=bid, window_start=0, window_end=1, requests=requests)


def naive_partition(requests):
    """Oracle: group by exact sequence bytes; representative = first arrival."""
    groups = {}
    order = []
    for r in requests:
        try:
            seq = build_parameter_sequence(r)
        except Exception:
            seq = ("unique", r.request_id)
        if seq in groups:
            groups[seq].append(r.request_id)
        else:
            groups[seq] = []
            order.append((seq, r.request_id))
    return [rid for _, rid in order], {rid: groups[seq] for seq, rid in order}


class TestDedup:
    def test_basic_partition(self):
        d = Deduplicator()
        result = d.dedup(batch([req(1, ["s1"]), req(2, ["s1"]), req(3, ["s2"])]))
        assert [r.request_id for r in result.representatives] == [1, 3]
        assert result.groups == {1: [2], 3: []}
        assert abs(result.duplicate_ratio - 1 / 3) < 1e-12

    def test_all_identical(self):
        d = Deduplicator()
        result = d.dedup(batch([req(i, ["same"]) for i in range(1000)]))
        assert len(result.representatives) == 1
        assert len(result.groups[0]) == 999
        assert result.duplicate_ratio == 999 / 1000

    def test_all_distinct(self):
        d = Deduplicator()
        result = d.dedup(batch([req(i, [f"p{i}"]) for i in range(1000)]))
        assert len(result.representatives) == 1000
        assert result.duplicate_ratio == 0.0

    def test_separator_value_is_own_representative(self):
        d = Deduplicator()
        requests = [req(1, ["a\x1fb"]), req(2, ["a\x1fb"]), req(3, ["a\x1fb"])]
        result = d.dedup(batch(requests))
        assert [r.request_id for r in result.representatives] == [1, 2, 3]

    def test_denylisted_operation_never_coalesced(self):
        d = Deduplicator(denylist={"Mutate"})
        result = d.dedup(batch([req(1, ["x"], "Mutate"), req(2, ["x"], "Mutate")]))
        assert len(result.representatives) == 2

    def test_case_folding_coalesces(self):
        d = Deduplicator()
        result = d.dedup(batch([req(1, ["DOG"]), req(2, ["dog"])]))
        assert len(result.representatives) == 1

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(123)
        d = Deduplicator()
        for trial in range(300):
            size = rng.randint(1, 200)
            pool = [f"v{rng.randint(0, 20)}" for _ in range(size)]
            requests = [req(i, [pool[i]]) for i in range(size)]
            result = d.dedup(batch(requests, bid=trial))
            reps, groups = naive_partition(requests)
            assert [r.request_id for r in result.representatives] == reps
            assert result.groups == groups
            distinct = len(reps)
            assert result.duplicate_ratio == (size - distinct) / size

    def test_ratio_accounts_for_cache_hits(self):
        d = Deduplicator(DedupConfig(cache_enabled=True, cache_ttl_ms=10_000),
                         clock=lambda: 0)
        seq = build_parameter_sequence(req(0, ["hot"]))
        d.cache.store(seq, b"cached!", 0)
        result = d.dedup(batch([req(1, ["hot"]), req(2, ["cold"]), req(3, ["hot"])]))
        assert [rid for rid, _ in result.cache_hits] == [1, 3]
        assert [r.request_id for r in result.representatives] == [2]
        assert result.duplicate_ratio == 1 / 3  # the second hot key repeats


class TestResponseCache:
    def test_lookup_within_ttl(self):
        c = ResponseCache(ttl_ns=100)
        c.store(b"k", b"resp", now=0)
        assert c.lookup(b"k", now=50) == b"resp"

    def test_lookup_after_expiry(self):
        c = ResponseCache(ttl_ns=100)
        c.store(b"k", b"resp", now=0)
        assert c.lookup(b"k", now=100) is None

    def test_lookup_never_stored(self):
        assert ResponseCache().lookup(b"nope", now=0) is None

    def test_restore_replaces_bytes_keeps_hits(self):
        c = ResponseCache(ttl_ns=1000)
        c.store(b"k", b"old", now=0)
        c.lookup(b"k", 1)
        c.store(b"k", b"new", now=2)
        assert c.lookup(b"k", 3) == b"new"

    def test_capacity_evicts_least_recently_hit(self):
        c = ResponseCache(capacity=2, ttl_ns=10_000)
        c.store(b"a", b"ra", now=0)
        c.store(b"b", b"rb", now=1)
        c.lookup(b"a", 5)  # "b" is now coldest
        c.store(b"c", b"rc", now=6)
        assert c.lookup(b"b", 7) is None
        assert c.lookup(b"a", 7) == b"ra"
        assert c.lookup(b"c", 7) == b"rc"

    def test_eviction_matches_naive_model_randomized(self):
        # model: a dict of seq -> [bytes, stored_at, last_hit]; when full,
        # the least-recently-hit entry goes; a re-store keeps its place
        rng = random.Random(17)
        for _ in range(200):
            capacity = rng.randint(1, 8)
            ttl = rng.randint(5, 200)
            c = ResponseCache(capacity=capacity, ttl_ns=ttl)
            model = {}
            now = 0
            for _ in range(300):
                now += rng.randint(1, 10)
                seq = f"k{rng.randint(0, 12)}".encode()
                if rng.random() < 0.4:
                    resp = b"r%d" % now
                    c.store(seq, resp, now)
                    if seq in model:
                        model[seq][:2] = [resp, now]
                    else:
                        if len(model) >= capacity:
                            del model[min(model, key=lambda k: model[k][2])]
                        model[seq] = [resp, now, now]
                else:
                    entry = model.get(seq)
                    want = None
                    if entry is not None and now < entry[1] + ttl:
                        want = entry[0]
                        entry[2] = now
                    assert c.lookup(seq, now) == want
                assert len(c) <= capacity

    def test_cache_never_serves_expired_randomized(self):
        rng = random.Random(9)
        c = ResponseCache(capacity=64, ttl_ns=100)
        stored = {}  # seq -> stored_at
        now = 0
        for _ in range(3000):
            now += rng.randint(0, 30)
            seq = f"k{rng.randint(0, 40)}".encode()
            if rng.random() < 0.5:
                c.store(seq, b"r" + seq, now)
                stored[seq] = now
            else:
                got = c.lookup(seq, now)
                if got is not None:
                    assert seq in stored
                    assert now < stored[seq] + 100
                    assert got == b"r" + seq


class TestCacheStore:
    """A reply is cached once its key has been seen min_group_size times,
    counted across batches; cache hits do not count."""

    def make(self, capacity=1024):
        return Deduplicator(
            DedupConfig(cache_enabled=True, cache_ttl_ms=10_000,
                        cache_capacity=capacity, min_group_size=2),
            clock=lambda: 0)

    @staticmethod
    def run(d, requests, bid=0):
        """Group one batch and store a reply per representative."""
        result = d.dedup(batch(requests, bid))
        d.cache_store(result, {r.request_id: f"resp-{r.parameters[0]}".encode()
                               for r in result.representatives})
        return result

    def test_largest_group_cached(self):
        # every group with two sightings is cached, not only the largest
        d = self.make()
        self.run(d, [req(i, ["s1"]) for i in range(5)]
                 + [req(i + 10, ["s2"]) for i in range(3)]
                 + [req(20, ["s3"])])
        assert d.cache.lookup(b"search\x1fs1", 1) == b"resp-s1"
        assert d.cache.lookup(b"search\x1fs2", 1) == b"resp-s2"
        assert d.cache.lookup(b"search\x1fs3", 1) is None

    def test_no_duplicates_nothing_cached(self):
        d = self.make()
        result = d.dedup(batch([req(1, ["a"]), req(2, ["b"])]))
        d.cache_store(result, {1: b"ra", 2: b"rb"})
        assert len(d.cache) == 0

    def test_tie_goes_to_earliest_representative(self):
        # tied groups are both cached, each with its representative's reply
        d = self.make()
        requests = [req(1, ["x"]), req(2, ["y"]), req(3, ["x"]), req(4, ["y"])]
        result = d.dedup(batch(requests))
        d.cache_store(result, {1: b"rx", 2: b"ry"})
        assert d.cache.lookup(b"search\x1fx", 1) == b"rx"
        assert d.cache.lookup(b"search\x1fy", 1) == b"ry"

    def test_second_sighting_in_a_later_batch_is_cached(self):
        d = self.make()
        self.run(d, [req(1, ["hot"]), req(2, ["a"])], bid=0)
        assert len(d.cache) == 0
        self.run(d, [req(3, ["hot"]), req(4, ["b"])], bid=1)
        assert d.cache.lookup(b"search\x1fhot", 1) == b"resp-hot"
        assert len(d.cache) == 1

    def test_key_seen_once_is_never_stored(self):
        d = self.make()
        for bid in range(50):
            self.run(d, [req(bid * 2, [f"cold{bid}"]),
                         req(bid * 2 + 1, [f"other{bid}"])], bid)
        assert len(d.cache) == 0

    def test_missing_reply_is_not_stored(self):
        # a key without a 200 reply (a fault, or a call another window
        # made) is counted but not cached
        d = self.make()
        result = d.dedup(batch([req(1, ["x"]), req(2, ["x"])]))
        d.cache_store(result, {})
        assert len(d.cache) == 0

    def test_doorkeeper_never_exceeds_cache_capacity(self):
        rng = random.Random(4)
        d = self.make(capacity=16)
        for bid in range(300):
            self.run(d, [req(bid * 4 + j, [f"k{rng.randint(0, 200)}"])
                         for j in range(4)], bid)
            assert len(d._sightings) <= 16
            assert len(d.cache) <= 16
