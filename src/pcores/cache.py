"""Append-only JSON-lines result cache with per-line checksums.

Each line stores {"key", "payload", "checksum"} where the checksum covers
the key and payload together.  A lookup parses only the lines carrying its
key and skips those that fail to parse or to match their checksum, so
corruption is never fatal.  Keys name the version and source of the code.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from . import __version__


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _checksum(key: str, payload) -> str:
    return hashlib.sha256(_canonical([key, payload]).encode()).hexdigest()


def _code_fingerprint() -> str:
    """sha256 over the names and contents of the package's .py files."""
    digest = hashlib.sha256()
    for source in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(source.name.encode() + b"\0" + source.read_bytes())
    return digest.hexdigest()


def cache_key(command: str, parameters: dict, decimal_digits: int) -> str:
    """Stable key: the command, its parameters, the precision and the code."""
    return _canonical({"command": command, "parameters": parameters,
                       "decimal_digits": decimal_digits,
                       "version": __version__, "code": _code_fingerprint()})


def load(path, key: str):
    """The payload of the last intact line stored under key, or None."""
    needle = ('"key": ' + json.dumps(key)).encode()  # as append writes it
    try:
        with open(path, "rb") as handle:
            candidates = [line for line in handle if needle in line]
    except OSError:
        return None
    for line in reversed(candidates):
        try:
            record = json.loads(line)
            # the checksum covers the key, so another key's line fails it
            if record["checksum"] == _checksum(key, record["payload"]):
                return record["payload"]
        except (ValueError, KeyError, TypeError):
            continue
    return None


def append(path, key: str, payload) -> None:
    """Append one checksummed record; directories are created as needed."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {"key": key, "payload": payload,
              "checksum": _checksum(key, payload)}
    with path.open("a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
