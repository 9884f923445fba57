"""Puts bench/ on sys.path, so tests can run its trace auditor, which
imports nothing from nettax and so checks the simulator independently."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
