"""Let a bare ``python -m pytest`` test this checkout's ``src/`` without installing it.

``src`` goes first on ``sys.path`` for the tests themselves, and first on
``PYTHONPATH`` for the ``python -m sharpopt`` subprocesses some tests start.
"""
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")

sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join(
    [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
