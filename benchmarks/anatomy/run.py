"""Entry point for ``python3 benchmarks/anatomy/run.py`` (what
``BENCHMARK.json`` names): puts the checkout and ``src/`` on the path,
then hands over to :mod:`benchmarks.anatomy.cli`."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]
# Not this directory: its module names must not shadow anything.
sys.path[0] = str(ROOT)
sys.path.insert(1, str(ROOT / "src"))

from benchmarks.anatomy.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
