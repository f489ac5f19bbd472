"""Set-up cost of one fresh process: import ptchain, then generate and
validate a workload's configs. Prints the seconds taken.

    python3 bench/setup_probe.py <workload> <seed>

``bench/run.py`` starts this several times per run and reports the median
as ``setup_s``; a CLI user pays this cost on every invocation.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ptchain.cli import validate_config  # noqa: E402
from workloads import build_configs  # noqa: E402

for _, config in build_configs(sys.argv[1], int(sys.argv[2])):
    validate_config(config)
print(f"{time.perf_counter() - START!r}")
