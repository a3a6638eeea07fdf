"""Digest of every towb ``--json`` report on the bundled fixtures.

Usage::

    python3 tools/report_digest.py [CHECKOUT]

Runs each subcommand on ``sys_a`` to ``sys_d``, plus a few malformed
cylinder specs, through ``towb.cli.main`` of the towb checkout at
``CHECKOUT`` (default: the one holding this script), writing the JSON
reports into a temporary directory.  Prints one line per run: the sha256
of the report (``-`` when none was written), the exit code and the
arguments.  Reports are deterministic, so two checkouts give the same
reports exactly when the outputs of::

    diff <(python3 tools/report_digest.py OLD) <(python3 tools/report_digest.py)

are empty.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

FIXTURES = ("sys_a", "sys_b", "sys_c", "sys_d")
COMMANDS = (
    ("verify",),
    ("harmonic",),
    ("measure",),
    ("defect",),
    ("cylinder", "--x", "0.3", "--sets", "[0,0.25);all;[0.5,0.75)u[0.9,1)"),
    ("sample",),
    ("quasi",),
    ("markov", "--x", "0.3", "--set-a", "[0,0.25)", "--set-b", "[0,0.5)",
     "--n", "3"),
    ("harmonic-from-measure",),
)
# Input errors, run on sys_a only.
MALFORMED = (
    ("cylinder", "--x", "0.3", "--sets", ";"),
    ("markov", "--x", "0.3", "--set-a", ";", "--set-b", "[0,0.5)"),
    ("markov", "--x", "0.3", "--set-a", "[0,0.25);[0.5,0.75)",
     "--set-b", "[0,0.5)"),
)


def cases():
    for fixture in FIXTURES:
        for command in COMMANDS:
            yield fixture, command
    for command in MALFORMED:
        yield "sys_a", command


def run(main, fixture_dir: Path, fixture: str, command: tuple,
        out: Path) -> tuple[str, int]:
    """Sha256 of the JSON report (``-`` if none) and the exit code."""
    if out.exists():
        out.unlink()
    argv = [*command, "--config", str(fixture_dir / f"{fixture}.cfg"),
            "--json", str(out)]
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as exc:   # argparse: a flag an older checkout lacks
            code = exc.code
    digest = (hashlib.sha256(out.read_bytes()).hexdigest() if out.exists()
              else "-")
    return digest, code


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1
                else Path(__file__).resolve().parent.parent).resolve()
    src = root / "src"
    if not (src / "towb" / "cli.py").is_file():
        print(f"no towb sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from towb.cli import main as towb_main

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        for fixture, command in cases():
            digest, code = run(towb_main, src / "towb" / "fixtures",
                               fixture, command, out)
            print(f"{digest}  {code}  {fixture} {' '.join(command)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
