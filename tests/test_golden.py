"""Golden reports: every report file and every case's stdout must match its
committed bytes exactly.

The cases and the script that regenerates them live in ``tests/golden/``.
A mismatch names each differing JSON path (CSV cell, stdout line) with both
values, so a last-bit float drift reads differently from a structural change.
"""

import csv
import importlib.util
import io
import json
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)
json_differences = regenerate.json_differences


def csv_differences(want: str, got: str) -> list[str]:
    rows_a = list(csv.reader(io.StringIO(want)))
    rows_b = list(csv.reader(io.StringIO(got)))
    if len(rows_a) != len(rows_b):
        return [f"row count {len(rows_a)} != {len(rows_b)}"]
    header = rows_a[0] if rows_a else []
    diffs = []
    for i, (ra, rb) in enumerate(zip(rows_a, rows_b)):
        if len(ra) != len(rb):
            diffs.append(f"row {i}: {len(ra)} cells != {len(rb)}")
            continue
        for j, (a, b) in enumerate(zip(ra, rb)):
            if a != b:
                col = header[j] if i and j < len(header) else j
                diffs.append(f"row {i}, {col}: golden {a!r}, now {b!r}")
    return diffs or ["same cells, different line endings or quoting"]


def stdout_differences(want: str, got: str) -> list[str]:
    lines_a, lines_b = want.splitlines(), got.splitlines()
    if len(lines_a) != len(lines_b):
        return [f"line count {len(lines_a)} != {len(lines_b)}"]
    diffs = [
        f"line {i + 1}: golden {a!r}, now {b!r}"
        for i, (a, b) in enumerate(zip(lines_a, lines_b))
        if a != b
    ]
    return diffs or ["same lines, different line endings"]


def _environment_note() -> str:
    recorded = json.loads((GOLDEN / "platform.json").read_text())
    current = regenerate.environment()
    changed = {k: (recorded.get(k), v) for k, v in current.items() if recorded.get(k) != v}
    if not changed:
        return "The goldens were made on this platform, so the change is in the code."
    parts = ", ".join(f"{k} {a} -> {b}" for k, (a, b) in changed.items())
    return (
        f"The goldens were made on another platform ({parts}); report bits depend on"
        " BLAS dots, LAPACK's eigensolver, numpy's SIMD pow (chosen from the CPU's"
        " SIMD targets) and the C library's pow, so last-digit drift may come from that."
    )


def test_environment_note_names_a_simd_change(monkeypatch):
    # A CPU without the recorded dispatch targets runs other pow loops.
    recorded = json.loads((GOLDEN / "platform.json").read_text())
    fewer = dict(recorded, simd_dispatch_found=recorded["simd_dispatch_found"][:1])
    monkeypatch.setattr(regenerate, "environment", lambda: fewer)
    note = _environment_note()
    assert f"simd_dispatch_found {recorded['simd_dispatch_found']} ->" in note
    assert "numpy's SIMD pow" in note
    # Another LAPACK build may round the eigensolver's last bits differently.
    other = dict(recorded, lapack=dict(recorded["lapack"], version="0.0.0"))
    monkeypatch.setattr(regenerate, "environment", lambda: other)
    note = _environment_note()
    assert "lapack {" in note and "'version': '0.0.0'}" in note
    assert "LAPACK's eigensolver" in note


def test_differences_name_paths_and_values():
    want = '{\n  "a": [\n    1,\n    0.5\n  ],\n  "b": 0\n}\n'
    got = '{\n  "a": [\n    1,\n    0.50000000000000011\n  ],\n  "b": -0\n}\n'
    assert json_differences(want, got) == [
        "a[1]: golden '0.5', now '0.50000000000000011'",
        "b: golden '0', now '-0'",
    ]
    assert json_differences('{\n  "a": 1,\n  "b": 2\n}\n', '{\n  "b": 2,\n  "a": 1\n}\n') == [
        "<root>: keys ['a', 'b'] != ['b', 'a']"
    ]
    assert csv_differences("x,y\n1,2\n", "x,y\n1,3\n") == ["row 1, y: golden '2', now '3'"]
    assert stdout_differences("a\nb 1\n", "a\nb 2\n") == ["line 2: golden 'b 1', now 'b 2'"]


@pytest.mark.parametrize("name", sorted(regenerate.CASES))
def test_report_bytes_match_golden(name, tmp_path):
    assert regenerate.run_case(name, tmp_path) == 0
    outputs = dict(regenerate.CASES[name][1], stdout=f"{name}.stdout")
    for option, filename in outputs.items():
        want = (GOLDEN / filename).read_bytes()
        got = (tmp_path / filename).read_bytes()
        if got != want:
            differ = {"--csv": csv_differences, "stdout": stdout_differences}.get(
                option, json_differences
            )
            lines = differ(want.decode(), got.decode())
            pytest.fail(
                f"{filename} differs from its golden in {len(lines)} place(s):\n  "
                + "\n  ".join(lines[:40])
                + f"\n{_environment_note()}"
                "\nRegenerate only with tests/golden/regenerate.py, and say why in CHANGES.md."
            )


def test_regenerate_prints_the_moved_key_paths(tmp_path, monkeypatch, capsys):
    # Each changed file is printed; under a changed JSON file that existed
    # before, its moved key paths with both values, schema_version left out.
    here = tmp_path / "tests" / "golden"
    here.mkdir(parents=True)
    monkeypatch.setattr(regenerate, "HERE", here)
    report, same, new = here / "r.json", here / "s.json", here / "new.json"
    report.write_text('{\n  "schema_version": 15,\n  "a": [\n    1,\n    0.5\n  ]\n}\n')
    same.write_text("{}\n")
    before = regenerate._snapshot([report, same, new])
    report.write_text('{\n  "schema_version": 16,\n  "a": [\n    1,\n    -0.5\n  ]\n}\n')
    new.write_text("{}\n")
    regenerate._print_moved(before)
    assert capsys.readouterr().out.splitlines() == [
        "tests/golden/r.json",
        "  a[1]: golden '0.5', now '-0.5'",
        "tests/golden/new.json",
    ]
