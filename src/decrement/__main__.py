"""``python -m decrement``: the command line front end of ``decrement.cli``."""

import sys

from decrement.cli import main

if __name__ == "__main__":
    sys.exit(main())
