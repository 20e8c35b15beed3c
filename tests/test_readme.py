"""The README's command-line examples and flag table against the CLI, so a
renamed flag or problem fails here instead of leaving stale docs."""

import os
import re
import shlex

from prefixcodes import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme() -> str:
    with open(README) as fh:
        return fh.read()


def _sh_commands(text: str) -> list[list[str]]:
    """The ``prefixcodes ...`` command lines of the README's ``sh`` blocks."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.M | re.S):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["prefixcodes"]:
                commands.append(words[1:])
    return commands


def _flag_table(text: str) -> dict[str, tuple[str, ...]]:
    """The README's problem -> flags table, each problem's flags in order."""
    table = text.split("| problem | flags |", 1)[1].split("\n\n", 1)[0]
    rows = {}
    for line in table.splitlines()[2:]:
        problem, flags = line.strip("|").split("|")
        rows[problem.strip().strip("`")] = tuple(re.findall(r"`(--[a-z-]+)`", flags))
    return rows


def test_every_sh_example_parses():
    commands = _sh_commands(_readme())
    assert len(commands) >= 9
    parser = cli.build_parser()
    for words in commands:
        args = parser.parse_args(words)
        assert args.command == words[0]


def test_flag_table_matches_the_cli():
    assert _flag_table(_readme()) == cli._PROBLEM_FLAGS
