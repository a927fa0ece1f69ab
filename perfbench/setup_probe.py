"""Print the seconds a fresh interpreter takes to import hyper4.cli from
./src and finish first-use set-up (the 24-cell and the reference flat
groups).  Run from the repository root; perfbench/run.py starts it."""

import time

start = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import program  # noqa: E402

program.import_cli()

from hyper4.cell24 import the_24_cell  # noqa: E402
from hyper4.flatgroups import reference_flat_groups  # noqa: E402

the_24_cell()
reference_flat_groups()
print(time.perf_counter() - start)
