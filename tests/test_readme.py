"""README's commands stay runnable: each parses, and each script it names exists.

Nothing is executed; a renamed flag, subcommand or script fails here.
"""

import re
import shlex
from pathlib import Path

from tempqt.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _code_blocks(text: str) -> dict:
    """Fenced blocks by the heading they sit under."""
    blocks = {}
    for section in re.split(r"^## ", text, flags=re.M)[1:]:
        heading = section.splitlines()[0]
        blocks[heading] = re.findall(r"^```\n(.*?)^```", section, flags=re.M | re.S)
    return blocks


def _commands(block: str) -> list:
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_recipe_runs_every_stage():
    (recipe,) = _code_blocks(README)["The documented recipe"]
    subcommands = [argv[1] for argv in _commands(recipe) if argv[0] == "tempqt"]
    assert subcommands == ["synth", "pretrain", "train", "eval", "maps"]


def test_every_tempqt_line_parses():
    lines = [argv for blocks in _code_blocks(README).values() for b in blocks for argv in _commands(b)]
    parser = build_parser()
    for argv in lines:
        if argv[0] == "tempqt":
            parser.parse_args(argv[1:])  # a usage error exits 2


def test_every_named_script_exists():
    scripts = re.findall(r"scripts/[\w.-]+\.py", README)
    assert "scripts/make_textures.py" in scripts
    for script in scripts:
        assert (ROOT / script).is_file(), script
