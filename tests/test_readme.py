"""The README runs: its Quick start commands exit 0, and its module table names
the package's modules."""

import re
import shlex

from bcpair import cli
from conftest import ROOT

README = (ROOT / "README.md").read_text(encoding="utf-8")


def _quick_start() -> list[list[str]]:
    """The arguments of each ``bcpair ...`` line of the Quick start block, in order."""
    section = README.split("## Quick start", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("bcpair ")]


def test_quick_start_commands_exit_0(tmp_path, monkeypatch, capsys):
    # every line runs: none is skipped for time, the whole block takes about 1 s
    commands = _quick_start()
    assert len(commands) >= 10 and ["verify", "all"] in commands
    monkeypatch.chdir(tmp_path)
    for args in commands:
        assert cli.main(args) == 0, f"bcpair {shlex.join(args)}: {capsys.readouterr()}"
    assert (tmp_path / "report.json").is_file() and (tmp_path / "relation.txt").is_file()


def test_module_table_names_every_module():
    table = set(re.findall(r"^\| `bcpair\.(\w+)`", README, re.M))
    modules = {p.stem for p in (ROOT / "src" / "bcpair").glob("*.py")} - {"__init__", "__main__"}
    assert table == modules
