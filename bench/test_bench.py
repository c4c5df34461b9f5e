"""Tests of the benchmark's own checks and streams.

    PYTHONPATH=src python3 -m pytest bench
"""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import pytest  # noqa: E402

import oracle  # noqa: E402
from run import Ledger  # noqa: E402
from semproxy import mock_backend, soap  # noqa: E402
from workloads import THINK_MEAN_S, WORKLOADS, Stream  # noqa: E402

PARAMS = ("alpha", "beta")


def stream_shape(stream, count):
    """Hot share, parameter lengths and distinct tuples of a stream's head."""
    hot = stream.hot()
    params = [stream.params(i) for i in range(count)]
    return {
        "hot_share": sum(p == hot for p in params) / count,
        "lengths": {len(v) for p in params for v in p},
        "distinct": len(set(params)),
    }


def backend_answer(params, rows):
    """The mock backend's own serialized reply."""
    return soap.build_response(mock_backend.search_result(params, rows), "Search")


@pytest.mark.parametrize("rows", [0, 1, 10, 200])
def test_backend_answer_passes(rows):
    assert oracle.check_body(backend_answer(PARAMS, rows), PARAMS, rows) is None


def test_corrupted_cell_fails():
    body = backend_answer(PARAMS, 10)
    cell = oracle.expected_rows(PARAMS, 10)[3][1]
    bad = body.replace(cell.encode(), b"0" * len(cell))
    assert bad != body
    assert "row 3" in oracle.check_body(bad, PARAMS, 10)


def test_truncated_body_fails():
    body = backend_answer(PARAMS, 10)
    assert "invalid XML" in oracle.check_body(body[:-20], PARAMS, 10)


def test_wrong_row_count_fails():
    body = backend_answer(PARAMS, 9)
    assert "9 rows, expected 10" in oracle.check_body(body, PARAMS, 10)


def test_answer_for_other_parameters_fails():
    body = backend_answer(("alpha", "gamma"), 10)
    assert "row 0" in oracle.check_body(body, PARAMS, 10)


def test_fault_fails():
    body = soap.build_fault("Server.Timeout", "pipeline timeout")
    assert oracle.check_body(body, PARAMS, 10) is not None


def test_balanced_ledger_passes():
    health = {"admitted": 10, "delivered": 9, "dropped_disconnects": 1,
              "duplicate_deliveries": 0}
    assert oracle.check_ledger(health) == []


def test_unbalanced_ledger_fails():
    health = {"admitted": 10, "delivered": 8, "dropped_disconnects": 1,
              "duplicate_deliveries": 0}
    assert "unbalanced" in oracle.check_ledger(health)[0]


def test_duplicate_delivery_fails():
    health = {"admitted": 10, "delivered": 10, "dropped_disconnects": 0,
              "duplicate_deliveries": 1}
    assert "duplicate" in oracle.check_ledger(health)[0]


@pytest.mark.parametrize("calls,exact,ok", [
    (5, False, True),    # distinct <= calls <= requests
    (3, False, False),   # fewer calls than distinct keys: a reply was invented
    (11, False, False),  # more calls than requests
    (10, True, True),
    (9, True, False),    # every request must reach the backend
])
def test_call_count_bounds(calls, exact, ok):
    errors = oracle.check_counts(requests=10, backend_calls=calls,
                                 distinct_keys=4, exact_calls=exact)
    assert (errors == []) is ok


def test_ledger_counts_wrong_replies_as_failed():
    stream = Stream(WORKLOADS["hot-large"], seed=3)
    rows = stream.workload.rows
    hot = next(i for i in range(100) if stream.params(i) == stream.hot())
    hot2 = next(i for i in range(hot + 1, 200) if stream.params(i) == stream.hot())
    good = backend_answer(stream.params(hot), rows)
    other = backend_answer(stream.params(hot), rows - 1)
    ledger = Ledger(stream, verified={})
    failed = ledger.check([
        (hot, 0, 1, 200, good),
        (hot2, 0, 1, 200, good[:-1] + b" "),  # differs from the verified reply
        (hot + 1, 0, 1, 504, b"timeout"),
        (hot + 2, 0, 1, 200, other),
    ])
    assert [(i, wrong) for i, _, wrong in failed] == [
        (hot2, True), (hot + 1, False), (hot + 2, True)]
    assert ledger.sent == 4


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [1, 2])
def test_streams_hit_their_targets(name, seed):
    wl = WORKLOADS[name]
    count = 4000
    shape = stream_shape(Stream(wl, seed), count)
    assert abs(shape["hot_share"] - wl.similarity_pct / 100) < 0.03
    assert shape["lengths"] == {wl.param_length}
    if wl.similarity_pct == 0:
        assert shape["distinct"] == count


def test_streams_are_seeded():
    wl = WORKLOADS["half-longkey-cache"]
    a, b = Stream(wl, 5), Stream(wl, 5)
    assert [a.body(i) for i in range(50)] == [b.body(i) for i in range(50)]
    assert [a.body(i) for i in range(50)] != [Stream(wl, 6).body(i)
                                              for i in range(50)]
    assert [a.think_s(i) for i in range(50)] == [b.think_s(i) for i in range(50)]


def test_think_time_has_its_mean():
    stream = Stream(WORKLOADS["cold-small"], 1)
    pauses = [stream.think_s(i) for i in range(4000)]
    assert abs(sum(pauses) / len(pauses) - THINK_MEAN_S) < 0.1 * THINK_MEAN_S
