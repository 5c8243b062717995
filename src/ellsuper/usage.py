"""The argparse parser of the command line: help, abbreviations, ``--x=y`` forms and usage errors.

:func:`ellsuper.cli.main` parses a plain command line from the table
``cli._SUBCOMMANDS`` itself and loads this module, and ``argparse`` with it,
only for a command line that the plain parser leaves to argparse, so a
plain job compiles neither.
"""

from argparse import ArgumentParser

from .cli import _FORMAT, _SUBCOMMANDS


def build_parser() -> ArgumentParser:
    """The argparse parser of ``cli._SUBCOMMANDS``: help, abbreviations and every usage error.

    Each subcommand's help text is also its description, so its ``--help``
    says what it runs.  A usage error exits with argparse's own code 2;
    ``cli.main`` reports it as 1.
    """
    parser = ArgumentParser(prog="ellsuper", description="Exact superpotential counts for the projective plane.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, run, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text, description=help_text)
        for flag, kwargs in (_FORMAT, *options):
            p.add_argument(flag, **kwargs)
        p.set_defaults(run=run)
    return parser
