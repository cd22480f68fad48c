"""python -m skewchar: the command-line interface of skewchar.cli."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
