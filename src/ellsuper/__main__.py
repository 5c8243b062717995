"""Process entry of the ``ellsuper`` command line.

``python -m ellsuper`` and the installed ``ellsuper`` script both call
:func:`run`, which owns the interpreter's GC policy and its standard output
for the process; :func:`ellsuper.cli.main` stays free of GC calls and
returns its exit code, so in-process callers keep their GC state and see
its exceptions.

A reader that closes the pipe early (``ellsuper ... | head -n 1``) ends the
job with :data:`EXIT_PIPE`, 141 (128 + SIGPIPE, as a shell reports a
process the signal killed), and nothing on stderr.
"""

import gc
import os
import sys

from .cli import main

EXIT_PIPE = 141


def run() -> int:
    """Freeze the import-time heap, then run the command line on ``sys.argv``.

    Everything alive once the CLI is imported (the interpreter's ``site``
    objects, ``json`` and this package's modules) lives until
    exit; ``argparse`` is not among them, since it loads only for help and
    usage errors.  ``gc.freeze()`` moves it to the permanent generation,
    which no collection scans, so neither the full collections at interpreter
    exit nor gen-2 collections during the run walk it again.  Objects the run
    creates are collected as before.

    Standard output is flushed here, so a closed pipe raises inside the
    ``try`` whether or not output is buffered.  Standard output then points
    at ``os.devnull``, so the flush at interpreter exit has nowhere to fail,
    and the job returns :data:`EXIT_PIPE`.
    """
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    return code


if __name__ == "__main__":
    sys.exit(run())
