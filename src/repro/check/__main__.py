"""``python -m repro.check`` — the same CLI as ``python -m repro check``."""

import sys

from repro.check.cli import main

if __name__ == "__main__":
    sys.exit(main())
