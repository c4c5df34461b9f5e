"""The traced benchmark's layer replay runs against the current program.

``bench/layers.py`` calls the proxy's modules directly (collector, grouping,
cache, gate, metrics), so an API change there breaks traced bench runs.
This runs a short replay in process for each workload, with no child
process or live run.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import layers  # noqa: E402
from workloads import WORKLOADS, Stream  # noqa: E402

LAYER_KEYS = {
    "soap.parse_request_us", "soap.param_key_us", "soap.build_response_us",
    "windowing.admit_us", "dedup.dedup_us_per_req", "dedup.cache_lookup_us",
    "dedup.cache_store_us", "trie.insert_us_per_key",
    "gate.observe_decide_us", "metrics.record_ns_us",
    "metrics.record_response_us",
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_replay_reports_every_layer(name):
    values = layers.replay(
        layers.Tracer(), Stream(WORKLOADS[name], 1), 0, 200, 1.1,
        latencies_ns=[2_000_000] * 50, body_sizes=[1024] * 50,
        service_ns=1_000_000)
    assert set(values) == LAYER_KEYS
    assert all(v >= 0 for v in values.values())
