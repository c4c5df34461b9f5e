import json

import pytest

from semproxy.config import ProxyConfig


@pytest.mark.parametrize("mode", [None, "sem", "passthrough"])
def test_known_force_modes_load(tmp_path, mode):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"force_mode": mode}))
    assert ProxyConfig.from_file(str(path)).force_mode == mode


@pytest.mark.parametrize("mode", ["adaptive", "Sem", "", 1])
def test_unknown_force_mode_is_rejected(tmp_path, mode):
    # any such value once meant passthrough without a word
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"force_mode": mode}))
    with pytest.raises(ValueError, match="force_mode"):
        ProxyConfig.from_file(str(path))


@pytest.mark.parametrize("window_ms", [0, -2.0])
def test_window_must_be_positive(window_ms):
    with pytest.raises(ValueError, match="window_ms"):
        ProxyConfig(window_ms=window_ms)
