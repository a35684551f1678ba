"""The machine-speed probe that benchmark times are scaled by.

The shared 2-core machine the benchmark was defined on runs the same code
at speeds up to about 1.8 times apart, switching every few milliseconds to
minutes, and each of its two CPUs switches on its own.  ``kernel_s`` times
a fixed 0.3 ms loop of 2x2 numpy and float operations, the kind of work
nhsiegel does; a time measured beside such probes, on the same CPU, is
multiplied by REF_S over their mean.  REF_S is the probe's median on that
machine (Python 3.11.7, numpy 2.4.6).  No nhsiegel code runs inside the
probe, so a change to nhsiegel moves a scaled time as it moves a raw one.
"""

import math
import time

import numpy as np

REF_S = 0.0003

_A = np.array([[2.0, 0.3], [0.3, 1.0]])


def kernel_s() -> float:
    """Wall seconds of the fixed probe loop."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(40):
        acc += float(np.trace(_A @ _A + i)) + math.sqrt(i + 1.0)
    return time.perf_counter() - t0
