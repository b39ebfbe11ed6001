"""``PYTHONPATH=src python -m benchmarks.anatomy`` from the repository root."""

import sys

from benchmarks.anatomy.cli import main

sys.exit(main())
