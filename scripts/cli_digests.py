#!/usr/bin/env python3
"""Print the sha256 and CPU time of the stdout of eight reference CLI commands.

Each command runs in a fresh ``python -m reltoa.cli`` process against the
library in this checkout's src/, as a user's command does.  The digests are
what CHANGES.md records when a change claims byte-identical output; compare
them by eye or with diff.  Beside each digest goes the command's CPU
seconds (user plus system, from the getrusage(RUSAGE_CHILDREN) delta around
it): its cold time, start-up included, since every command starts a new
process.  Run from anywhere:

    python scripts/cli_digests.py

Cold, each command takes 0.25-0.85 s of CPU on a 2-core host, so the whole
set takes a few seconds.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import resource
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

COMMANDS = (
    "table1",
    "table2",
    "scan --vo 0.99 --sigma 6 --ko-min 0.1 --ko-max 6 --steps 120",
    "kernel --vo 0.3",
    "kernel --vo 0.1 --zeta-min 1 --zeta-max 160 --grid 160",
    "density --vo 0.99 --sigma 4 --ko 1.3 --grid 400",
    "point --vo 0.2 --sigma 0.5 --ko 2 --barrier-a -21 --barrier-b -20",
    "limits",
)


def _children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    for command in COMMANDS:
        before = _children_cpu_s()
        out = subprocess.run(
            [sys.executable, "-m", "reltoa.cli", *command.split()],
            capture_output=True, check=True, env=env,
        ).stdout
        cpu_s = _children_cpu_s() - before
        print(f"{hashlib.sha256(out).hexdigest()}  {cpu_s:8.2f} s  {command}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
