"""Set-up of one workload in a fresh interpreter, as a user pays it.

    python3 bench/prepare.py WORKLOAD SEED WORKDIR SIZE

Imports parastep, builds the workload's inputs and prints one JSON line
with the import time and the number of ``sys.modules`` entries the import
added.  The parent times the whole process as the set-up time.
"""

import json
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    name, seed, work, size = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), sys.argv[4]
    before = len(sys.modules)
    t0 = time.perf_counter()
    import parastep

    import_s = time.perf_counter() - t0
    added = len(sys.modules) - before

    import workloads

    workloads.check_source(parastep)
    workloads.WORKLOADS[name].setup(seed, work, size)
    print(json.dumps({"import_s": import_s, "import_modules": added}))
