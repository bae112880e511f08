"""``python -m gtlab ...`` runs the gtlab command line."""

import sys

from gtlab.harness import main

if __name__ == "__main__":
    sys.exit(main())
