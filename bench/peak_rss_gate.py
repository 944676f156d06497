#!/usr/bin/env python3
"""Run a command and fail when its peak resident set size passes a limit.

The peak is the kernel's high-water mark for the finished child,
resource.getrusage(RUSAGE_CHILDREN).ru_maxrss (KiB on Linux), reported in
MB of 1024 KiB as perfbench/run.py reports peak_rss_mb. Unlike wall time,
peak RSS does not drift with host speed, so a CI job can gate on it.

Usage: peak_rss_gate.py LIMIT_MB COMMAND [ARG...]
Exit status: the command's own when it fails, 1 when its peak passes
LIMIT_MB, 0 otherwise. The command's output passes through; the verdict
goes to stderr.
"""

import resource
import subprocess
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        limit_mb = float(argv[1])
    except ValueError:
        print(f"peak_rss_gate: LIMIT_MB must be a number, not '{argv[1]}'",
              file=sys.stderr)
        return 2
    command = argv[2:]
    status = subprocess.run(command).returncode
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    name = " ".join(command)
    if status != 0:
        print(f"peak_rss_gate: '{name}' exited with {status}",
              file=sys.stderr)
        return status if status > 0 else 1
    verdict = "over" if peak_mb > limit_mb else "within"
    print(f"peak_rss_gate: peak RSS {peak_mb:.1f} MB, {verdict} the "
          f"{limit_mb:g} MB limit: {name}", file=sys.stderr)
    return 1 if peak_mb > limit_mb else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
