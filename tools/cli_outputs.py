"""Run a fixed list of ``twisthom`` commands in-process and print what each
one printed, followed by its exit code.

    python3 tools/cli_outputs.py SRC

SRC is the directory that holds the ``twisthom`` package (``src`` in a
checkout).  Every command in ``COMMANDS`` goes through
``twisthom.cli.main`` in this one process, with its standard output and
standard error captured.  For each command the tool prints a line
``$ twisthom <arguments>``, the captured text, and a line ``exit <code>``.
Two checkouts answer these commands alike when the outputs of two runs
are byte-identical, which one ``cmp`` shows.  Standard library only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import shlex
import sys
from pathlib import Path

# The groups of the bar-oracle comparison: finite groups whose bar complex
# fits under a 60000-element cap through the degrees it needs.
ORACLE_GROUPS = ("Z_2", "Z_3", "Z_4", "Z_2 x Z_2", "Z_3 x Z_3", "Z_2~", "Z_4~")

COMMANDS = [
    ["homology", "Z x Z_3 x Z_4~", "4", "--generators"],
    ["homology", "Z_2 x Z_4 x Z_8 x Z_3 x Z_3", "6", "--generators"],
    ["scan", "Z^3 x Z_3", "3"],
    ["scan", "Z_3 x Z_3 x Z_3 x Z_3", "5"],
    ["chi", "Z^3 x Z_3", "3", "[1 1 1 0]+[0 0 0 3]"],
    *(["oracle-compare", group, "4", "--cap", "60000"] for group in ORACLE_GROUPS),
    ["verify-paper"],
]


def run(main, argv: list[str]) -> tuple[str, int]:
    """The text a CLI entry point ``main`` printed for ``argv``, standard
    output and standard error together, and its exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = main(argv)
    return out.getvalue(), code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", help="the directory that holds the twisthom package")
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    from twisthom import cli

    if src not in Path(cli.__file__).resolve().parents:
        print(f"error: twisthom was imported from {cli.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    for command in COMMANDS:
        text, code = run(cli.main, command)
        print("$ twisthom " + shlex.join(command))
        print(text, end="")
        print(f"exit {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
