"""Locate and drive the hyper4 program from the checkout's own sources.

The benchmark always runs the package under ``src/`` of the directory
it is started from, never an installed copy, so that two checkouts can
be measured side by side.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

SRC = os.path.join(os.getcwd(), "src")


class ProgramMissing(RuntimeError):
    """The checkout holds no hyper4 sources to measure."""


def import_cli():
    """Import ``hyper4.cli`` from ``./src``; raise ProgramMissing otherwise."""
    if not os.path.isfile(os.path.join(SRC, "hyper4", "cli.py")):
        raise ProgramMissing(f"no hyper4 sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import hyper4.cli as cli

    origin = os.path.realpath(cli.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise ProgramMissing(f"hyper4 was imported from {origin}, not from {SRC}")
    return cli


def call(cli, argv: list[str]) -> tuple[int | None, str, str | None]:
    """Run ``cli.main(argv)`` with stdout captured.

    Returns (exit code, stdout, name of an uncaught exception or None).
    An exception that escapes ``main`` is an outcome to report, never a
    reason to stop the run.
    """
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejecting the argv
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # noqa: BLE001 - every escape is a failed op
        return None, buf.getvalue(), type(exc).__name__
    return rc, buf.getvalue(), None


def envelope(stdout: str) -> dict | None:
    """The JSON envelope printed by a verb, or None if it did not print one."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return None
    return doc if isinstance(doc, dict) else None
