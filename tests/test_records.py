"""The committed records under ``tests/records`` are what the code writes
today, byte for byte (see ``tests/replay_records.py`` for how to regenerate
them after a deliberate change)."""

import json
from pathlib import Path

import replay_records

RECORDS = Path(__file__).resolve().parent / "records"


def _files(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _first_difference(a, b, path="") -> str:
    """The first key path (in sorted key order) where two JSON values differ."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b or a[key] != b[key]:
                return _first_difference(a.get(key), b.get(key), f"{path}.{key}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return _first_difference(x, y, f"{path}[{i}]")
    return path or "(top level)"


def test_records_byte_identical(tmp_path):
    replay_records.write_records(tmp_path)
    want, got = _files(RECORDS), _files(tmp_path)
    missing, unexpected = sorted(want.keys() - got.keys()), sorted(got.keys() - want.keys())
    assert not missing and not unexpected, f"missing {missing}, unexpected {unexpected}"
    for name in sorted(want):
        if got[name] != want[name]:
            try:
                where = _first_difference(json.loads(want[name]), json.loads(got[name]))
            except ValueError:
                where = "(not JSON)"
            raise AssertionError(f"{name} differs first at {where}")
