"""Process entry of the ``ellsuper`` command line.

``python -m ellsuper`` and the installed ``ellsuper`` script both call
:func:`run`, which owns the interpreter's GC policy and its standard output
for the process; :func:`ellsuper.cli.main` stays free of GC calls and
returns its exit code, so in-process callers keep their GC state and see
its exceptions.

A reader that closes the pipe early (``ellsuper ... | head -n 1``) ends the
job with :data:`EXIT_PIPE`, 141 (128 + SIGPIPE, as a shell reports a
process the signal killed), and nothing on stderr.

Once both standard streams are flushed, :func:`run` ends the process with
``os._exit``, skipping the interpreter's teardown, unless a tracer or a
profiler is attached (``python -m cProfile -m ellsuper ...`` still prints
its stats).
"""

import gc
import os
import sys

from .cli import main

EXIT_PIPE = 141


def run() -> int:
    """Freeze the import-time heap, then run the command line on ``sys.argv``.

    Everything alive once the CLI is imported (the interpreter's ``site``
    objects and this package's modules) lives until exit; ``argparse`` and
    ``json`` are not among them, since they load only for help, usage errors
    and the rare value the CLI's own JSON writer leaves to ``json``.
    ``gc.freeze()`` moves it to the permanent generation, which no
    collection scans, so gen-2 collections during the run do not walk it
    again (nor, under a tracer or profiler, the full collections at
    interpreter exit).  Objects the run creates are collected as before.

    Standard output is flushed here, so a closed pipe raises inside the
    ``try`` whether or not output is buffered.  Standard output then points
    at ``os.devnull``, so the flush at interpreter exit has nowhere to fail,
    and the job's code is :data:`EXIT_PIPE`.

    With both streams flushed, nothing the job made is still needed, so the
    process ends here with ``os._exit(code)``: no module teardown, no final
    collections, no ``atexit`` handlers.  A tracer or profiler
    (``sys.gettrace()`` or ``sys.getprofile()`` set) reports at exit, so then
    the code is returned for the caller's ``sys.exit``, as before.
    """
    gc.freeze()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.stderr.flush()
    if sys.gettrace() is None and sys.getprofile() is None:
        os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(run())
