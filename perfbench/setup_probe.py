"""One benchmark set-up in a fresh process.

Imports deepo from the checkout's ``src/`` and builds a workload's inputs,
then prints ``ready``; ``run.py`` times this from spawn to that line.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
parser.add_argument("--seed", type=int, required=True)
args = parser.parse_args()
WORKLOADS[args.workload].build(args.seed)
print("ready", flush=True)
