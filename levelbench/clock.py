"""Machine-speed calibration.

On a machine shared with other work, the speed one process gets can drift
by up to ~50% over tens of seconds (seen on a 2-vCPU Xeon VM), for every
kind of work alike. To keep runs comparable, every timed operation is
bracketed by a fixed pure-Python loop, and the operation's time is
reported scaled to a machine on which that loop takes REFERENCE_S:

    reported = measured * REFERENCE_S / (loop time around the operation)

The loop is the benchmark's own code, so no change to the program can move
it; a program that does more work reports more time. Raw times are kept in
the full record (run.py --out) next to the scaled ones.
"""

import time

LOOP = 300_000
REFERENCE_S = 0.020


def calibrate() -> float:
    """Wall seconds of the fixed loop at the machine's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i
    return time.perf_counter() - t0


def factors(cals: list[tuple[int, float]], count: int) -> list[float]:
    """Scale factor of each of `count` operations run in sequence.

    cals holds (i, loop time) for loops run just before operation i, with
    one at i = 0 and one at i = count, after the last operation. Operation
    i is scaled by the mean of the last loop before it and the first after.
    """
    out, j = [], 0
    for i in range(count):
        while cals[j + 1][0] <= i:
            j += 1
        out.append(2.0 * REFERENCE_S / (cals[j][1] + cals[j + 1][1]))
    return out
