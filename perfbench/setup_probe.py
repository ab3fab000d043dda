"""One set-up as a user pays it: interpreter start, ``import conequant``,
input generation and file writing.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import conequant  # noqa: E402,F401  (the import is part of what is timed)
import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1:4]
    workloads.write_inputs(workload, int(seed), Path(workdir))
