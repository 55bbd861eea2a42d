"""Run ``python -m fusionarith.casefile ARGS...`` and record its peak RSS.

    python3 perfbench/cli_child.py PEAK_FILE ARGS...

Writes this process's VmHWM (kB) to PEAK_FILE when the CLI exits.  The
ru_maxrss that os.wait4 returns for a child cannot serve: at exec Linux
folds the spawning process's own peak RSS into it, so a child started by
a benchmark that has parsed a large report would read at least as large
as the benchmark.  VmHWM covers only the memory of the new program.
"""

import runpy
import sys

if __name__ == "__main__":
    peak_file = sys.argv[1]
    sys.argv = [sys.argv[0], *sys.argv[2:]]
    try:
        runpy.run_module("fusionarith.casefile", run_name="__main__", alter_sys=True)
    finally:
        with open("/proc/self/status", encoding="ascii") as fh:
            kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
        with open(peak_file, "w", encoding="ascii") as fh:
            fh.write(kb)
