"""Child process that measures set-up time.

    python3 perfbench/probe.py WORKLOAD SEED SPAWNED

SPAWNED is the parent's ``time.monotonic()`` just before it started this
process; the monotonic clock is shared by every process on the machine.
Once hoch is imported and the workload's spec is parsed and its space and
algebra are built, the probe prints the seconds since SPAWNED.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_workloads():
    """Import hoch from this checkout's src/ and return the workloads module.

    Raises ImportError when the checkout holds no hoch package.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "hoch", "__init__.py")):
        raise ImportError(f"no hoch package under {src}")
    sys.path.insert(0, src)
    import hoch

    if not os.path.abspath(hoch.__file__).startswith(src + os.sep):
        raise ImportError(f"hoch was imported from {hoch.__file__}")
    import workloads

    return workloads


def main(argv):
    name, seed, spawned = argv[1], int(argv[2]), float(argv[3])
    workload = load_workloads().WORKLOADS[name]
    workload.setup(workload.spec(seed))
    print(time.monotonic() - spawned)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
