"""One cold set-up, timed in a fresh interpreter: import sqopt and build problems.

    python3 perfbench/probe_setup.py PROBLEMS.json

PROBLEMS.json holds a list of ``problem`` sections.  Prints the seconds from
before ``import sqopt`` (numpy included) until every problem is built once
with ``harness.build_problem``.  The caller puts ``src`` on PYTHONPATH.
"""

import json
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        problems = json.load(fh)
    t0 = time.perf_counter()
    from sqopt import harness

    for spec in problems:
        harness.build_problem(spec)
    print(repr(time.perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
