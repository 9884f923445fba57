"""Puts bench/ on sys.path, so tests can run its trace auditor, which
imports nothing from nettax and so checks the simulator independently,
and scripts/, so solver tests can draw the fingerprint's instances."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))
sys.path.insert(0, str(ROOT / "scripts"))
