from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"

for path in (PERFBENCH, SRC):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
