"""Every ``toricpot repro <name> --json`` report, byte for byte.

``tests/golden/<name>.json`` holds the committed report of each
scenario.  A change that moves any byte of one fails here; when the
change is intended, regenerate the file with

    PYTHONPATH=src python -m toricpot.cli repro <name> --json \\
        > tests/golden/<name>.json

and say in the change log why the report moved.
"""

from pathlib import Path

import pytest

from toricpot.cli import _REPROS, main

GOLDEN = Path(__file__).parent / "golden"


def test_every_scenario_has_a_golden():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(_REPROS)


@pytest.mark.parametrize("name", sorted(_REPROS))
def test_repro_json_is_byte_identical(capsys, name):
    assert main(["repro", name, "--json"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()
