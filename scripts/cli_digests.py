#!/usr/bin/env python3
"""Check the sha256 and print the CPU time of the stdout of eight reference CLI commands.

The commands and their expected digests are tests/data/cli_digests.json,
which tests/test_cli.py also reads.  Each command runs in a fresh
``python -m reltoa.cli`` process against the library in this checkout's
src/, as a user's command does.  Each line gives the digest, ``ok`` or
``MISMATCH`` against the file, and the command's CPU seconds (user plus
system, from the getrusage(RUSAGE_CHILDREN) delta around it): its cold
time, start-up included, since every command starts a new process.  The
exit status is 1 if any digest mismatches.  With --write, the file's
digests are replaced by the ones just computed, and the status is 0.  Run
from anywhere:

    python scripts/cli_digests.py           # check
    python scripts/cli_digests.py --write   # rewrite the digests

Cold, each command takes 0.14-0.33 s of CPU on a 2-core host, so the whole
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
DIGESTS = ROOT / "tests" / "data" / "cli_digests.json"


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the digest file")
    args = parser.parse_args()
    expected = json.loads(DIGESTS.read_text())
    written = {}
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    status = 0
    for command, digest in expected.items():
        before = _children_cpu_s()
        out = subprocess.run(
            [sys.executable, "-m", "reltoa.cli", *command.split()],
            capture_output=True, check=True, env=env,
        ).stdout
        cpu_s = _children_cpu_s() - before
        got = hashlib.sha256(out).hexdigest()
        written[command] = got
        if got != digest:
            status = 1
        mark = "ok" if got == digest else "MISMATCH"
        print(f"{got}  {mark:8s}  {cpu_s:5.2f} s  {command}", flush=True)
    if args.write:
        DIGESTS.write_text(json.dumps(written, indent=2) + "\n")
        print(f"wrote {DIGESTS}")
        return 0
    return status


if __name__ == "__main__":
    sys.exit(main())
