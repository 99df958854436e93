"""Command line: ``python -m tools.pairs --parent REV --workload W --seeds A-B``."""

from __future__ import annotations

import sys

from . import main

if __name__ == "__main__":
    sys.exit(main())
