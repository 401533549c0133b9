"""``python -m tlstar``: the command-line interface of `tlstar.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
