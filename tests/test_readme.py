"""The README's library layout table against the modules it describes,
and its CLI examples against the CLI."""

import dataclasses
import importlib
import re
import shlex
from pathlib import Path

import pytest

import regalg
from regalg.cli import main
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


def cli_examples() -> list[list[str]]:
    """The arguments of every `regalg` command line in the README's sh
    blocks, with backslash continuations joined and comments dropped."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("regalg "):
                examples.append(shlex.split(line, comments=True)[1:])
    return examples


def test_readme_has_cli_examples():
    assert cli_examples()


@pytest.mark.parametrize("argv", cli_examples(), ids=" ".join)
def test_cli_example_exits_0(argv, tmp_path):
    assert main([*argv, "--out", str(tmp_path / "report")]) == 0
