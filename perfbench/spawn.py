"""Run one command and record its own peak resident set.

Usage: python -I -S perfbench/spawn.py RSS_OUT PROGRAM [ARGS...]

Linux keeps a process's ru_maxrss across fork and exec, so a child started
by a large process reports at least that process's peak.  This launcher is
a small interpreter: it starts PROGRAM, waits for it, writes the child's
peak resident set in MB to RSS_OUT and exits with the child's exit code.
The child inherits stdin, stdout, stderr and the environment.
"""

import os
import sys


def main() -> int:
    rss_out, argv = sys.argv[1], sys.argv[2:]
    pid = os.posix_spawnp(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    with open(rss_out, "w", encoding="utf-8") as handle:
        handle.write(str(usage.ru_maxrss / 1024.0))
    return os.waitstatus_to_exitcode(status)


if __name__ == "__main__":
    sys.exit(main())
