"""The timed child process: the vvmf CLI, plus a record of its peak memory.

    PYTHONPATH=src python3 perfbench/cli_child.py RSS_FILE VVMF_ARGS...

runs ``vvmf.cli`` as ``python -m vvmf.cli VVMF_ARGS...`` does and, at exit,
writes the process's VmHWM (its peak resident set since exec, in KiB) to
RSS_FILE.  The ``ru_maxrss`` that ``wait4`` returns cannot be used: Linux
carries the spawning process's resident size into the child's ru_maxrss,
so every child of the benchmark would report at least the benchmark's own
size (about 24 MiB after it has built the cyclo-det inputs).
"""

from __future__ import annotations

import atexit
import runpy
import sys


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def record_peak_rss(path: str) -> None:
    """Write this process's peak resident set to ``path`` when it exits."""
    def write() -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(f"{peak_rss_kib()}\n")

    atexit.register(write)


if __name__ == "__main__":
    record_peak_rss(sys.argv[1])
    sys.argv = ["vvmf", *sys.argv[2:]]
    runpy.run_module("vvmf.cli", run_name="__main__", alter_sys=True)
