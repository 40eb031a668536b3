"""Run given shapesphere calls in a process of their own.

Usage: python perfbench/memprobe.py < PICKLE

Reads a pickled list of (function, args, kwargs) from stdin, with function
named "module.name" in the shapesphere package, and runs the calls in order.
Started through spawn.py, which records the process's peak resident set.
Run with src/ on PYTHONPATH.
"""

import importlib
import pickle
import sys


def main() -> int:
    calls = pickle.load(sys.stdin.buffer)
    for function, args, kwargs in calls:
        module, name = function.split(".")
        getattr(importlib.import_module(f"shapesphere.{module}"), name)(*args, **kwargs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
