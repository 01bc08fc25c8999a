"""Test-session setup shared by every test module.

`pythonpath = ["src"]` in pyproject.toml lets this process import the
package; tests that start `python -m multigroup` in a child process need the
same directory on the child's PYTHONPATH.

The hypothesis profile `mutants` is for runs of the suite against a
deliberately broken copy of the package: fixed draws, so a mutant is killed
or survives alike on every rerun, and no shrinking, which would spend most
of a killing run on minimising its counterexample. Only
`--hypothesis-profile=mutants` chooses it; every other run keeps the default.
"""

import os
from pathlib import Path

from hypothesis import Phase, settings

SRC = str(Path(__file__).resolve().parent.parent / "src")

settings.register_profile(
    "mutants", derandomize=True, phases=[phase for phase in Phase if phase is not Phase.shrink])


def pytest_configure(config):
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, *paths]))
