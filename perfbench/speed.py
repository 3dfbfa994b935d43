"""A fixed reference kernel that measures how fast the host runs right now.

The host this benchmark was tuned on changes speed by up to 1.9x in spells
of seconds to minutes (see README.md, "Noise").  Timing a fixed piece of
work next to the program, and dividing the program's times by it, cancels
most of that.  The kernel does the kinds of work binomedian's hot paths do
(exact Fraction recurrences and big-integer Horner evaluation), but it
shares no code with binomedian, so a change to the program never moves it.

`NOMINAL_S` is the kernel's median time on the 2-vCPU Intel Xeon VM
(2.0 GHz nominal, Python 3.11.7) where the benchmark was tuned.  A time t
measured next to kernel time k is reported as t * NOMINAL_S / k: seconds
as they would read at that machine's typical speed.
"""

from __future__ import annotations

import time
from fractions import Fraction
from math import comb

NOMINAL_S = 0.0093

_N = 320
_P = Fraction(101, 197)
_DEGREE = 24
_COEFFS = tuple((-1) ** i * comb(_DEGREE, i) * comb(2 * _DEGREE, i) for i in range(_DEGREE + 1))
_BITS = 120


def kernel() -> int:
    """One unit of reference work; returns a checksum so nothing is skipped."""
    # an exact cdf scan by the pmf ratio recurrence
    ratio = _P / (1 - _P)
    mass = (1 - _P) ** _N
    total = mass
    for k in range(_N // 2):
        mass = mass * ratio * (_N - k) / (k + 1)
        total += mass
    # den**deg * P(num/den) at dyadic points, all in integers
    den = 1 << _BITS
    check = total.numerator & 0xFFFF
    for step in range(1, 61):
        num = (step * 0x9E3779B97F4A7C15) % den
        value, den_power = _COEFFS[-1], 1
        for c in reversed(_COEFFS[:-1]):
            den_power *= den
            value = value * num + c * den_power
        check ^= value & 0xFFFF
    return check


def sample() -> float:
    """Seconds for one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
