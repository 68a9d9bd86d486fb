"""``python -m hardylab --config ...``: the batch CLI (see ``hardylab.cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
