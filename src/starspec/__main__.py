"""``python -m starspec``: the command line interface of ``starspec.cli``."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
