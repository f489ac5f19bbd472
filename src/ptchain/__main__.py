"""``python -m ptchain``: the ``ptchain`` command line (:mod:`ptchain.cli`).

From a checkout, ``PYTHONPATH=src python -m ptchain run config.json`` runs
without installing the package.
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
