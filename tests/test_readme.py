"""The README's shell commands parse with the CLI, and its quick start runs."""
import re
import shlex
from pathlib import Path

import pytest

from gsh_shrink.cli import build_parser

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_blocks(lang: str) -> list[tuple[str | None, str]]:
    """(section heading, body) of every ```lang block in the README."""
    heading, body, blocks = None, None, []
    in_fence = False
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            if in_fence and body is not None:
                blocks.append((heading, "\n".join(body)))
            in_fence = not in_fence
            body = [] if in_fence and line[3:].strip() == lang else None
        elif in_fence:
            if body is not None:
                body.append(line)
        elif line.startswith("## "):
            heading = line[3:].strip()
    return blocks


def cli_commands() -> list[list[str]]:
    """Arguments of every `gsh-shrink` call in the sh blocks, with backslash
    continuations joined and one-line `for v in ...; do ...; done` loops
    expanded over their values."""
    commands = []
    for _, body in fenced_blocks("sh"):
        for line in body.replace("\\\n", " ").splitlines():
            loop = re.fullmatch(r"\s*for (\w+) in ([^;]+); do (.+); done\s*", line)
            if loop:
                var, values, step = loop.groups()
                lines = [step.replace(f"${var}", v) for v in values.split()]
            else:
                lines = [line]
            for text in lines:
                tokens = shlex.split(text, comments=True)
                if tokens and tokens[0] == "gsh-shrink":
                    commands.append(tokens[1:])
    return commands


COMMANDS = cli_commands()


def test_every_subcommand_is_shown():
    assert {argv[0] for argv in COMMANDS} == {"denoise", "simulate", "risk",
                                              "prior", "signal"}


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_parses(argv):
    args = build_parser().parse_args(argv)
    assert args.command == argv[0]


def test_library_quick_start_runs():
    (code,) = [body for heading, body in fenced_blocks("python")
               if heading == "Library quick start"]
    exec(compile(code, str(README), "exec"), {})
