"""Test-session setup: child interpreters that tests start (``python -m
dualebm.cli``) import the package from ``src/`` too, as the session itself
does through the ``pythonpath`` setting in ``pyproject.toml``."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
