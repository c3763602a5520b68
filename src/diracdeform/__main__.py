"""`python -m diracdeform`: the same command line as the `diracdeform` script."""

import sys

from .cli import main

sys.exit(main())
