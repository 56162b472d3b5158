"""Wall time scaled to a fixed host speed.

The 2-vCPU sandbox the bounds were set on changes speed by 20-50 % from one
second to the next: a fixed CPU-bound loop timed back to back reads times
whose interquartile range is 0.3-0.45 of their median, and CPU time moves
exactly as wall time does.  That is far wider than any bound a gate could
use, and a speed reference timed even one second away from the work no
longer tracks it.

So a timed block is sampled while it runs.  ``SIGALRM`` interrupts it every
``INTERVAL_S`` and runs ``probe()``, a fixed stdlib job (``Fraction`` and
120-digit mpmath arithmetic, the kinds of work the package does) of under
a millisecond; one probe also runs just before and one just after the
block.  The block's own time is its wall time less the probes inside it,
and its scaled time is its own time times ``PROBE_S / mean probe time``.
``PROBE_S`` is about the mean probe time inside a block on that sandbox,
so there the scaled figures read roughly as wall seconds at its usual
speed.  The probe uses no code of the package, so a change to the package
cannot move it.

A signal handler runs between two bytecodes of the main thread, so no
thread is started.  Blocks do not nest.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

import mpmath

PROBE_S = 0.00085
INTERVAL_S = 0.02

_probed_s = 0.0     # wall seconds spent in probes so far
_active = None      # the Scaled block running, if any


def own_clock() -> float:
    """A clock in seconds that stands still while a probe runs."""
    return time.perf_counter() - _probed_s


def probe() -> float:
    """Run the fixed reference job once; its wall seconds."""
    global _probed_s
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 50):
        acc += Fraction(1, i) * Fraction(i + 1, i + 2)
    with mpmath.mp.workdps(120):
        x = mpmath.mpf(2)
        for i in range(25):
            x = mpmath.sqrt(x + i)
    dt = time.perf_counter() - t0
    _probed_s += dt
    return dt


def _on_alarm(signum, frame) -> None:
    # stays installed: a signal still pending when a block ends must not
    # reach the default action, which ends the process
    if _active is not None:
        _active._probes.append(probe())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)


class Scaled:
    """Context manager; after the block, ``own_s``, ``speed`` and ``seconds`` are set.

    ``speed`` is ``PROBE_S / mean probe time`` (above 1 when the host runs
    faster than usual) and ``seconds = own_s * speed``.
    """

    def __enter__(self) -> "Scaled":
        global _active
        if _active is not None:
            raise RuntimeError("Scaled blocks do not nest")
        if signal.getsignal(signal.SIGALRM) is not _on_alarm:
            signal.signal(signal.SIGALRM, _on_alarm)
        self._probes = [probe()]
        _active = self
        self._t0 = own_clock()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        global _active
        self.own_s = own_clock() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        _active = None
        self._probes.append(probe())
        self.speed = PROBE_S * len(self._probes) / sum(self._probes)
        self.seconds = self.own_s * self.speed
