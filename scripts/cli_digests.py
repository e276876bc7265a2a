#!/usr/bin/env python3
"""Check the stdout of the reference CLI commands and print each one's CPU time.

The commands are tests/data/cli_digests.json, which tests/test_cli.py also
reads.  Each maps either to its golden CSV in tests/data (a name ending in
``.csv``), which its stdout must equal byte for byte, or to the sha256 of
its stdout.  Each command runs in a fresh ``python -m reltoa.cli`` process
against the library in this checkout's src/, as a user's command does,
with the repository root as its working directory, so that a command's
``--config tests/data/...`` resolves.
Each line gives the stdout's digest, ``ok`` or ``MISMATCH`` against its
pin, and the command's CPU seconds (user plus system, from the
getrusage(RUSAGE_CHILDREN) delta around it): its cold time, start-up
included, since every command starts a new process.  The exit status is 1
if any command mismatches.  With --write, the golden CSVs and the file's
digests are replaced by the outputs just computed, and the status is 0.
Run from anywhere:

    python scripts/cli_digests.py           # check
    python scripts/cli_digests.py --write   # rewrite the goldens and digests

Cold, each command takes 0.09-0.33 s of CPU on a 2-core host, so the whole
set takes a few seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import resource
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
REFERENCES = DATA / "cli_digests.json"


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--write", action="store_true", help="rewrite the golden CSVs and the digests"
    )
    args = parser.parse_args()
    references = json.loads(REFERENCES.read_text())
    written = {}
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    status = 0
    for command, pin in references.items():
        before = _children_cpu_s()
        out = subprocess.run(
            [sys.executable, "-m", "reltoa.cli", *command.split()],
            capture_output=True, check=True, env=env, cwd=ROOT,
        ).stdout
        cpu_s = _children_cpu_s() - before
        got = hashlib.sha256(out).hexdigest()
        golden = DATA / pin if pin.endswith(".csv") else None
        ok = got == pin if golden is None else out == golden.read_bytes()
        if args.write and golden is not None:
            golden.write_bytes(out)
        written[command] = got if golden is None else pin
        if not ok:
            status = 1
        print(f"{got}  {'ok' if ok else 'MISMATCH':8s}  {cpu_s:5.2f} s  {command}", flush=True)
    if args.write:
        REFERENCES.write_text(json.dumps(written, indent=2) + "\n")
        print(f"wrote {REFERENCES} and its golden CSVs")
        return 0
    return status


if __name__ == "__main__":
    sys.exit(main())
