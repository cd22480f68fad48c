"""Set-up probe: do the benchmark's set-up for one workload in a fresh
interpreter, then print "ready".  run.py times this process from its start
to that line to measure setup_s.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.setup(sys.argv[1], int(sys.argv[2]))
    print("ready", flush=True)
