"""Process entry of the ``ellsuper`` command line.

``python -m ellsuper`` and the installed ``ellsuper`` script both call
:func:`run`, the one process entry: it owns standard output and the exit of
the process, while :func:`ellsuper.cli.main` returns its exit code, so
in-process callers see its exceptions and keep their interpreter.

A reader that closes the pipe early (``ellsuper ... | head -n 1``) ends the
job with :data:`EXIT_PIPE`, 141 (128 + SIGPIPE, as a shell reports a
process the signal killed), and nothing on stderr.

Once both standard streams are flushed, :func:`run` ends the process with
``os._exit``, skipping the interpreter's teardown, unless a tracer or a
profiler is attached (``python -m cProfile -m ellsuper ...`` still prints
its stats).
"""

import os
import sys

from .cli import main

EXIT_PIPE = 141


def run() -> int:
    """Run the command line on ``sys.argv`` and end the process with its code.

    Standard output is flushed here, so a closed pipe raises inside the
    ``try`` whether or not output is buffered.  Standard output then points
    at ``os.devnull``, so the flush at interpreter exit has nowhere to fail,
    and the job's code is :data:`EXIT_PIPE`.

    With both streams flushed, nothing the job made is still needed, so the
    process ends here with ``os._exit(code)``: no module teardown, no final
    collections, no ``atexit`` handlers.  A tracer or profiler
    (``sys.gettrace()`` or ``sys.getprofile()`` set) reports at exit, so then
    the code is returned for the caller's ``sys.exit``.
    """
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
