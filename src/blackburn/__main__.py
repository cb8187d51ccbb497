"""Run the command-line interface as `python -m blackburn ...`."""

import sys

from .cli import main

sys.exit(main())
