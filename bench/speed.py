"""Host-speed calibration for the benchmark's end-to-end times.

A shared host swings the speed of plain Python code by up to 1.5x, both
from second to second and from minute to minute. `sample()` times a fixed
integer loop that touches no charge_lab code, so its time follows the
host's speed alone. `measure(fn)` runs `fn` while a SIGALRM timer takes a
sample every INTERVAL_S, and returns fn's wall time without the samples,
and that time rescaled to the reference speed at which a sample takes
REF_S: wall * REF_S * mean(1 / sample). A change to charge_lab moves the
rescaled time in full; a change in the host's speed cancels out.
"""

import signal
import time

LOOPS = 50_000
REF_S = 0.004
INTERVAL_S = 0.1


def sample() -> float:
    """Seconds of one run of the calibration loop."""
    t0 = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i % 7
    return time.perf_counter() - t0


def rescale(seconds: float, samples: list) -> float:
    """`seconds` at the reference speed, given the samples taken over them."""
    return seconds * REF_S * sum(1 / s for s in samples) / len(samples)


def measure(fn) -> tuple:
    """Run `fn()` under the sampling timer. Returns its result, its wall
    seconds without the samples, those seconds at the reference speed,
    and the samples (one taken afterwards if `fn` ended before the first)."""
    samples = []

    def handler(signum, frame):
        samples.append(sample())

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    t0 = time.perf_counter()
    try:
        result = fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    wall = elapsed - sum(samples)
    if not samples:
        samples.append(sample())
    return result, wall, rescale(wall, samples), samples
