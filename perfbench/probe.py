"""One set-up as a command-line user pays it: start Python, import
commbound, write the workload's inputs.  run.py times whole runs of this
script to get setup_s.

Usage: python3 perfbench/probe.py <workload> <seed> <directory>
"""

import sys

from common import import_commbound, pin_threads

if __name__ == "__main__":
    pin_threads()
    cb = import_commbound()
    import gen

    gen.generate(sys.argv[1], int(sys.argv[2]), sys.argv[3], cb)
