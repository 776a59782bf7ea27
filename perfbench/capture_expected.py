"""Capture the expected SimStats the benchmark checks its outputs against.

    python3 perfbench/capture_expected.py

Runs every sim_single and fig6a_grid cell once through the serial
``repro.exec.run_job`` path and writes ``perfbench/expected.json``.
Re-capture only when a change is meant to alter simulated statistics.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import EXPECTED, UOPS, capture

    EXPECTED.write_text(json.dumps(capture(UOPS), indent=1, sort_keys=True)
                        + "\n")
    print(f"wrote {EXPECTED}")
