"""Test-session setup shared by every test module.

`pythonpath = ["src"]` in pyproject.toml lets this process import the
package; tests that start `python -m multigroup` in a child process need the
same directory on the child's PYTHONPATH.
"""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")


def pytest_configure(config):
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, *paths]))
