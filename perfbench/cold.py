"""Cold start of one workload: import su2qfi in a fresh interpreter, run the first op.

    python3 perfbench/cold.py <workload> <seed>

Prints ``time.perf_counter()`` once the op is done; the parent that spawned
this process reads the same monotonic clock and takes the difference.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (imports su2qfi)


def main(name: str, seed: int) -> None:
    workload = workloads.make(name, os.path.join(ROOT, ".perfbench"))
    op = next(workload.ops(seed))
    try:
        workload.run(op)
    except Exception:  # an op the library refuses has still finished
        pass
    finally:
        workload.close()
    print(repr(time.perf_counter()))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
