"""``python -m regimelq <command> ...``: the same entry point as the
``regimelq`` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
