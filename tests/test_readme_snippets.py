"""The README's Public API and Observability ``python`` blocks run as written.

Each block runs in a fresh interpreter, like ``tests/test_cold_import.py``,
so a snippet that only works after some other module was imported first
(an import cycle) or that leans on an undefined name fails here.
"""

import os
import re
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))
README = os.path.join(os.path.dirname(SRC), "README.md")
SECTIONS = ("Public API", "Observability")


def python_blocks(section: str):
    with open(README, encoding="utf-8") as handle:
        text = handle.read()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", body, re.S)


SNIPPETS = [
    pytest.param(block, id=f"{section}-{index}")
    for section in SECTIONS
    for index, block in enumerate(python_blocks(section))
]


def test_every_section_has_a_snippet():
    assert all(python_blocks(section) for section in SECTIONS)


@pytest.mark.parametrize("block", SNIPPETS)
def test_snippet_runs_in_a_fresh_interpreter(block):
    completed = subprocess.run(
        [sys.executable, "-c", block],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip()
