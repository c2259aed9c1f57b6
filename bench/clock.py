"""A clock that reads in reference seconds: wall and CPU time rescaled by the
machine's momentary speed.

The virtual machines this benchmark runs on change speed by up to about 2x
over seconds to minutes, with the load of other guests on the host.  Raw
timings of the same code then spread by more than any useful bound.  This
clock measures the speed as it goes: every ``TICK_S`` seconds of the timed
section a timer signal runs a fixed calibration loop (``calibration_loop``)
and times it.  Each slice of the timed section between two ticks is divided
by the mean calibration time at its two ends and multiplied by
``REFERENCE_CAL_S``, the calibration time on a reference machine.  The sum is
the section's time on a machine of steady reference speed.

The time spent in the calibration itself is left out of both the raw and the
rescaled figures.  The calibration allocates no cyclic garbage and runs with
the garbage collector paused, so it does not shift partcat's own collections.
A signal handler runs between two bytecodes of the main thread, so a slice
that ends inside a long C call (a BLAS product) closes when the call returns.
"""

from __future__ import annotations

import gc
import signal
import time

TICK_S = 0.05
CALIBRATION_ROUNDS = 4000
# The median time of one calibration_loop() on an Intel Xeon vCPU with
# Python 3.11; it only sets the scale of the rescaled figures.
REFERENCE_CAL_S = 0.001


def calibration_loop() -> int:
    """Fixed interpreter work: integer arithmetic, dict updates, tuple hashing."""
    d: dict[int, int] = {}
    for i in range(CALIBRATION_ROUNDS):
        k = (i * 7919) % 1009
        d[k] = d.get(k, 0) + 1
    return len({(k, v & 7) for k, v in d.items()})


def timed_calibration() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class ReferenceClock:
    """Use as a context manager around the timed section; then read
    ``wall_s``/``cpu_s`` (raw, calibration excluded) and
    ``ref_wall_s``/``ref_cpu_s`` (rescaled to reference speed)."""

    def __init__(self) -> None:
        self.wall_s = self.cpu_s = self.ref_wall_s = self.ref_cpu_s = 0.0
        self.calibrations: list[float] = []
        self.previous = None
        self.busy = False

    def mark(self) -> None:
        """Close the running slice with a calibration and open the next one."""
        wall, cpu = time.perf_counter(), time.process_time()
        cal = timed_calibration()
        if self.previous is not None:
            wall0, cpu0, cal0 = self.previous
            scale = REFERENCE_CAL_S / ((cal0 + cal) / 2)
            self.wall_s += wall - wall0
            self.cpu_s += cpu - cpu0
            self.ref_wall_s += (wall - wall0) * scale
            self.ref_cpu_s += (cpu - cpu0) * scale
        self.calibrations.append(cal)
        self.previous = (time.perf_counter(), time.process_time(), cal)

    def on_tick(self, signum, frame) -> None:
        if not self.busy:
            self.busy = True
            try:
                self.mark()
            finally:
                self.busy = False

    def __enter__(self) -> ReferenceClock:
        self.old_handler = signal.signal(signal.SIGALRM, self.on_tick)
        self.mark()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.old_handler)
        self.mark()
