"""Every ``repro`` subpackage imports on its own in a fresh interpreter.

An import cycle only shows when its package is the first one imported, so
each subpackage gets a new ``python -c "import repro.<name>"`` process.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(repro.__file__))
SUBPACKAGES = sorted(
    info.name for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
)


def test_every_subpackage_is_listed():
    assert {"api", "eval", "joins", "service", "storage"} <= set(SUBPACKAGES)


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports_cold(name):
    env = dict(os.environ, PYTHONPATH=SRC)
    completed = subprocess.run(
        [sys.executable, "-c", f"import repro.{name}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
