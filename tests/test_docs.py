"""README against the code: its command lines parse, the names its Layout
table gives a module exist in that module, and the group sizes it states are
those that `experiment.group_size` gives."""
import importlib
import re
import shlex
from pathlib import Path

import pytest

from csipred import experiment
from csipred.cli import build_parser
from csipred.config import resolve_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


def _sh_commands():
    blocks = re.findall(r"^```sh\n(.*?)^```", README, re.M | re.S)
    return [line for block in blocks for line in block.splitlines()
            if line.startswith("csipred ")]


def _layout_rows():
    """(module names, backticked names with an underscore) per Layout row."""
    section = README.split("## Layout", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) < 4 or not cells[1].strip().startswith("`csipred."):
            continue
        modules = re.findall(r"`csipred\.(\w+)`", cells[1])
        names = {n for n in re.findall(r"`(\w+)`", cells[2]) if "_" in n}
        rows.append((modules, sorted(names)))
    return rows


def test_readme_has_commands_and_layout_rows():
    assert len(_sh_commands()) >= 6
    assert len(_layout_rows()) >= 10


@pytest.mark.parametrize("line", _sh_commands())
def test_readme_command_parses(line):
    try:
        build_parser().parse_args(shlex.split(line)[1:])
    except SystemExit as exc:
        pytest.fail(f"{line!r} does not parse (exit {exc.code})")


@pytest.mark.parametrize("modules,names", [
    pytest.param(modules, names, id="/".join(modules))
    for modules, names in _layout_rows()])
def test_layout_names_exist(modules, names):
    loaded = [importlib.import_module(f"csipred.{m}") for m in modules]
    missing = [n for n in names if not any(hasattr(m, n) for m in loaded)]
    assert missing == [], f"{'/'.join(modules)}: {missing}"


def test_readme_group_sizes_are_the_code_s():
    text = " ".join(README.split())
    found = re.search(r"At H=16, L=1, B=32 that is (\d+) rnn, (\d+) lstm, "
                      r"(\d+) bilstm and (\d+) np streams", text)
    assert found, "the group-size sentence is gone from README"
    cfg = resolve_config({"rnn_hidden": "16", "rnn_layers": "1",
                          "batch_size": "32"})
    sizes = [experiment.group_size(cfg, kind, 32)
             for kind in ("rnn", "lstm", "bilstm", "np")]
    assert [int(n) for n in found.groups()] == sizes
