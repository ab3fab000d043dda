"""``python -m conequant``: the command-line interface of :mod:`conequant.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
