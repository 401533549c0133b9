"""Byte-for-byte replay of a fixed battery of CLI commands.

`battery/cases.json` lists each command's argv and exit code; next to it,
`<name>.stdout` and `<name>.json` hold what the command printed and what it
wrote through ``--json``.  A change that alters any of these bytes fails
here and must say so.
"""

import json
from pathlib import Path

import pytest

from tlstar.cli import main

BATTERY = Path(__file__).parent / "battery"
CASES = json.loads((BATTERY / "cases.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_output_unchanged(case, capsys, tmp_path):
    path = tmp_path / "out.json"
    code = main(case["argv"] + ["--json", str(path)])
    assert capsys.readouterr().out == (BATTERY / f"{case['name']}.stdout").read_text(encoding="utf-8")
    assert code == case["exit"]
    assert path.read_bytes() == (BATTERY / f"{case['name']}.json").read_bytes()
