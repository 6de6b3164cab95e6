"""The README's library layout table against the modules it describes."""

import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import regalg
from regalg.core import RegularSubalgebra

README = Path(__file__).resolve().parents[1] / "README.md"


def layout_rows() -> dict[str, str]:
    """Module name -> contents cell of each row of the layout table."""
    section = README.read_text().split("## Library layout", 1)[1]
    rows = {}
    for line in section.splitlines():
        match = re.fullmatch(r"\| `(regalg\.\w+)` \| (.*) \|", line)
        if match:
            rows[match.group(1)] = match.group(2)
    return rows


def test_table_lists_every_module():
    package = Path(regalg.__file__).parent
    modules = {f"regalg.{path.stem}" for path in package.glob("*.py") if path.stem != "__init__"}
    assert set(layout_rows()) == modules


@pytest.mark.parametrize("module_name", [name for name in layout_rows() if name != "regalg.cli"])
def test_table_names_exist(module_name):
    module = importlib.import_module(module_name)
    fields = {f.name for f in dataclasses.fields(RegularSubalgebra)}
    names = re.findall(r"`([^`]+)`", layout_rows()[module_name])
    assert names
    missing = [name for name in names if not hasattr(module, name) and name not in fields]
    assert missing == []
