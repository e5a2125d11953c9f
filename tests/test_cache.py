"""Result cache: streamed lookup, corruption tolerance, code-bound keys."""

import json
import shutil
import tracemalloc
from pathlib import Path

from pcores import cache


def _series_payload(max_n):
    # the shape and size of a `series` envelope
    return {"command": "series", "parameters": {"p": 17, "max_n": max_n},
            "precision": 60, "residuals": {}, "pass": True,
            "values": {"counts": [[n, str(7 ** 60 + n)]
                                  for n in range(max_n + 1)]}}


class TestLoad:
    def test_missing_file_is_a_miss(self, tmp_path):
        assert cache.load(tmp_path / "absent.jsonl", "k") is None

    def test_round_trip_and_later_lines_win(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache.append(path, "a", 1)
        cache.append(path, "b", 2)
        cache.append(path, "a", 3)
        assert cache.load(path, "a") == 3
        assert cache.load(path, "b") == 2
        assert cache.load(path, "c") is None

    def test_corrupt_and_mismatched_lines_skipped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        cache.append(path, "a", 1)
        good = path.read_bytes()
        with path.open("ab") as handle:
            handle.write(good[:-5] + b"\n")  # truncated
            handle.write(good.replace(b'"payload": 1', b'"payload": 9'))
            handle.write(good[:-2] + b"\xff}\n")  # not UTF-8
        assert cache.load(path, "a") == 1

    def test_key_text_inside_another_payload_is_not_returned(self, tmp_path):
        path = tmp_path / "c.jsonl"
        key = cache.cache_key("count", {"p": 5, "n": 9}, 60)
        cache.append(path, "other", {"key": key, "note": key})
        assert '"key": ' + json.dumps(key) in path.read_text()
        assert cache.load(path, key) is None
        cache.append(path, key, "mine")
        assert cache.load(path, key) == "mine"

    def test_streamed_lookup_stays_small(self, tmp_path):
        path = tmp_path / "big.jsonl"
        keys = [f"series-{i}" for i in range(100)]
        for key in keys:
            cache.append(path, key, _series_payload(800))
        assert path.stat().st_size > 4_900_000
        tracemalloc.start()
        try:
            payload = cache.load(path, keys[50])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert payload == _series_payload(800)
        assert peak < 1_000_000


class TestKey:
    def test_key_carries_version_and_code(self):
        key = json.loads(cache.cache_key("cp", {"p": 11}, 60))
        assert key["version"] == cache.__version__
        assert len(key["code"]) == 64

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        with monkeypatch.context() as patched:
            patched.setattr(cache, "_code_fingerprint", lambda: "0" * 64)
            old_key = cache.cache_key("cp", {"p": 11}, 60)
        cache.append(path, old_key, "stale")
        key = cache.cache_key("cp", {"p": 11}, 60)
        assert key != old_key
        assert cache.load(path, key) is None

    def test_version_mismatch_is_a_miss(self, tmp_path, monkeypatch):
        path = tmp_path / "c.jsonl"
        with monkeypatch.context() as patched:
            patched.setattr(cache, "__version__", "0.0.0")
            old_key = cache.cache_key("cp", {"p": 11}, 60)
        cache.append(path, old_key, "stale")
        assert cache.load(path, cache.cache_key("cp", {"p": 11}, 60)) is None

    def test_fingerprint_follows_every_source(self, tmp_path, monkeypatch):
        copy = tmp_path / "pcores"
        shutil.copytree(Path(cache.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(cache, "__file__", str(copy / "cache.py"))
        before = cache._code_fingerprint()
        assert before == cache._code_fingerprint()
        with (copy / "arith.py").open("a") as handle:
            handle.write("\n")
        assert cache._code_fingerprint() != before
