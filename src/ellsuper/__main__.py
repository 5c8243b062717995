"""Process entry of the ``ellsuper`` command line.

``python -m ellsuper`` and the installed ``ellsuper`` script both call
:func:`run`, which owns the interpreter's GC policy for the process;
:func:`ellsuper.cli.main` stays free of GC calls, so in-process callers keep
their GC state.
"""

import gc
import sys

from .cli import main


def run() -> int:
    """Freeze the import-time heap, then run the command line on ``sys.argv``.

    Everything alive once the CLI is imported (the interpreter's ``site``
    objects, ``json`` and this package's modules) lives until
    exit; ``argparse`` is not among them, since it loads only for help and
    usage errors.  ``gc.freeze()`` moves it to the permanent generation,
    which no collection scans, so neither the full collections at interpreter
    exit nor gen-2 collections during the run walk it again.  Objects the run
    creates are collected as before.
    """
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
