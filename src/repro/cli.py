"""The ``repro`` console command: one front door to the package's CLIs.

``repro <subcommand> [args...]`` dispatches to the module-level entry
points, so ``repro verify --smoke`` is exactly ``python -m repro.verify
--smoke`` and ``repro run E-T2`` runs the experiments CLI.  ``repro run
--algorithm NAME ... --store DIR`` caches a direct sample in the result
store (see docs/STORE.md).
Installed via ``[project.scripts]`` in ``pyproject.toml``; in a source
checkout the ``python -m`` forms work without installation.

Every subcommand honours one exit-code contract:

* ``0`` — success (all checks passed / work completed);
* ``1`` — findings or failures (verification violations, lint findings);
* ``2`` — usage error (unknown subcommand, bad flags).
"""

from __future__ import annotations

import os
import sys
from typing import Callable

from repro._version import __version__

__all__ = ["main"]


def _run_run(argv: list[str]) -> int:
    from repro.experiments.cli import main

    return main(argv)


def _run_verify(argv: list[str]) -> int:
    from repro.verify.__main__ import main

    return main(argv)


def _run_analyze(argv: list[str]) -> int:
    from repro.analysis.__main__ import main

    return main(argv)


_SUBCOMMANDS: dict[str, tuple[Callable[[list[str]], int], str]] = {
    "run": (_run_run, "run paper experiments or one direct sample"),
    "verify": (_run_verify, "differential + metamorphic backend verification"),
    "analyze": (_run_analyze, "static analysis: domain lint + schedule verifier"),
}


def _usage() -> str:
    lines = ["usage: repro [--version] <subcommand> [args...]", "", "subcommands:"]
    for name, (_, help_text) in _SUBCOMMANDS.items():
        lines.append(f"  {name:12s} {help_text}")
    lines.append("")
    lines.append("run 'repro <subcommand> --help' for subcommand options")
    lines.append("exit codes: 0 ok, 1 findings/failures, 2 usage error")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_usage())
        return 0 if argv else 2
    if argv[0] in ("--version", "-V"):
        print(f"repro {__version__}")
        return 0
    name, rest = argv[0], argv[1:]
    entry = _SUBCOMMANDS.get(name)
    if entry is None:
        print(f"error: unknown subcommand {name!r}\n\n{_usage()}", file=sys.stderr)
        return 2
    try:
        return entry[0](rest)
    except BrokenPipeError:
        # stdout closed early (e.g. piped into `head`): exit quietly.  Point
        # stdout at devnull so the interpreter's final flush cannot re-raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
