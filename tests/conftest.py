"""Puts this directory on sys.path, so that test modules import their shared
reference (character_reference.py) under every pytest import mode."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
