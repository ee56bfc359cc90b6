"""Make ``repro`` importable when the benchmark's tests run from the checkout root."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
