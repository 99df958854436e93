"""CLI driver: ``python -m tools.census [--check | --workload W]``."""

from __future__ import annotations

import sys

from . import main

if __name__ == "__main__":
    sys.exit(main())
