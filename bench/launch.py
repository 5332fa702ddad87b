"""Run one command; print its wall time, exit code and peak RSS as JSON.

    python3 bench/launch.py -- ARGV...

Linux carries the memory high-water mark of the process that spawned a
child across the child's exec, so a child's reported peak RSS is never below
its spawner's.  The harness holds parsed reports and numpy arrays, so every
measured command is spawned from this small process instead, and the time
is taken here, from spawn to exit of the command alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    if argv[:1] != ["--"] or len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    t0 = perf_counter()
    proc = subprocess.Popen(argv[1:], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "code": proc.returncode, "rss_mb": usage.ru_maxrss / 1024.0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
