"""Entry point: ``python3 benchmarks/ledger/__main__.py`` or ``python -m benchmarks.ledger``.

Puts the repository root on ``sys.path`` itself, and takes this directory
off it so that ``trace.py`` cannot shadow the standard library's ``trace``.
Fleet workers re-import this file under another name (multiprocessing
spawn), which is why the CLI is imported only when run as a program.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != HERE]
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

if __name__ == "__main__":
    from benchmarks.ledger.cli import main

    sys.exit(main(sys.argv[1:]))
