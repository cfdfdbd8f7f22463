"""The README's code: every python block runs and every ini block is a
config that `parse_config_text` accepts."""

import re
from pathlib import Path

from twophase_ate.cli import parse_config_text

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, flags=re.MULTILINE | re.DOTALL)


def test_python_blocks_run():
    code = blocks("python")
    assert code
    for i, block in enumerate(code, start=1):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_ini_blocks_parse():
    configs = blocks("ini")
    assert configs
    for i, block in enumerate(configs, start=1):
        assert parse_config_text(block, f"README.md ini block {i}")
