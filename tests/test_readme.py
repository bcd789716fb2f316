"""README's command-line block runs as written: each command, in order, in
an empty directory, exits 0. CI runs the same block through the installed
`trajmatch` entry point."""

import shlex
from pathlib import Path

from trajmatch.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands(text: str) -> list[list[str]]:
    """The commands of the first fenced sh block after README's "Command
    line" heading, one argv each: lines ending in a backslash are joined to
    the next, and comments and blank lines are dropped."""
    section = text.split("\n## Command line\n", 1)[1]
    block = section.split("\n```sh\n", 1)[1].split("\n```\n", 1)[0]
    return [argv for line in block.replace("\\\n", " ").splitlines()
            if (argv := shlex.split(line, comments=True))]


def test_readme_commands_run_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = readme_commands(README.read_text(encoding="utf-8"))
    assert commands[0][:2] == ["trajmatch", "synth"]  # it writes what the rest read
    for argv in commands:
        assert argv[0] == "trajmatch"
        assert main(argv[1:]) == 0, f"{shlex.join(argv)}: {capsys.readouterr().err}"
