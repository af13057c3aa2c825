"""Time `import ratnets` in a fresh interpreter, at the reference host speed.

    python3 bench/import_probe.py <kernel>

run from the repository root, prints `[raw seconds, slowdown]`: the import's
wall time and the host slowdown that the named hostspeed kernel measured in
this process just before and after it.  The slowdown is measured here, not
in the parent, because this process may run on another core.  numpy, the
declared dependency, is loaded before the clock starts (see bench/README.md).
"""

import sys
import time

sys.path.insert(0, "src")

import numpy  # noqa: E402,F401

import hostspeed  # noqa: E402

SAMPLES = 5


def main() -> None:
    speed = hostspeed.HostSpeed(sys.argv[1])
    for _ in range(SAMPLES):
        speed.sample()
    t0 = time.perf_counter()
    import ratnets  # noqa: F401
    t1 = time.perf_counter()
    for _ in range(SAMPLES):
        speed.sample()
    print(repr([t1 - t0, speed.slowdown(t0, t1)]))


if __name__ == "__main__":
    main()
