"""The host's CPU speed during a run, and timings scaled to a reference speed.

This 2-vCPU VM shares its host: a fixed pure-Python loop runs 30-50 %
slower while a neighbour is busy, in spells of a second to minutes, with
the loop's CPU time tracking its wall time (it is a slower CPU, not steal).
A run's median session or query moves with it, and ten runs of the same
code spread 0.3-0.4 (IQR/median) on a busy host.

So the benchmark times a fixed reference kernel, which uses nothing of
``repro``, between its operations (and every ``BACKGROUND_PACE_S`` during
set-up), and reports each end-to-end timing scaled by
``REFERENCE_S / median(kernel time)`` over the samples taken during and
nearest to it: the time it would have taken at the host's reference speed.
The kernel is timed in CPU time of the thread that runs it, with the
garbage collector off, so neither a store worker sharing its CPU nor the
program's heap slows it, and an optimisation of the program cannot move it.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from typing import List, Optional, Tuple

#: the kernel's median CPU time on this host when its neighbours are quiet.
REFERENCE_S = 1.0e-3
#: fewest probe samples that judge the host's speed during one interval.
NEAREST = 16
#: pause between two samples of the set-up's background sampler.
BACKGROUND_PACE_S = 0.1
_WORDS = 1000


def reference_kernel() -> int:
    """Interpreter work of the program's kind: strings, dicts, sorting."""
    words = [f"w{i % 37}-{i * 7919 % 1000}" for i in range(_WORDS)]
    counts: dict = {}
    for word in words:
        head = word[:3]
        counts[head] = counts.get(head, 0) + len(word)
    ordered = sorted(words, key=lambda w: (len(w), w))
    return sum(counts.values()) + len(",".join(ordered).encode("ascii"))


_EXPECTED = reference_kernel()


class SpeedProbe:
    """Samples of the reference kernel's CPU time, taken between operations."""

    def __init__(self) -> None:
        #: ``(perf_counter() when taken, kernel CPU seconds)``, in time order.
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._background: Optional[threading.Thread] = None

    def sample(self) -> None:
        # The kernel makes no cycles; with the collector off, the program's
        # heap (which a collection would traverse) cannot slow it.
        collecting = gc.isenabled()
        gc.disable()
        try:
            started = time.thread_time()
            result = reference_kernel()
            self.samples.append((time.perf_counter(), time.thread_time() - started))
        finally:
            if collecting:
                gc.enable()
        if result != _EXPECTED:
            raise AssertionError("reference kernel returned another result")

    def start_background(self) -> None:
        """Sample from a thread until :meth:`stop_background`: set-up has
        no gaps of its own to sample in."""

        def run() -> None:
            while not self._stop.wait(BACKGROUND_PACE_S):
                self.sample()

        self._stop.clear()
        self._background = threading.Thread(target=run, name="speed-probe", daemon=True)
        self._background.start()

    def stop_background(self) -> None:
        if self._background is not None:
            self._stop.set()
            self._background.join()
            self._background = None

    def scale(self) -> float:
        """Factor that turns a time measured in this run into reference time."""
        return REFERENCE_S / statistics.median(cpu for _at, cpu in self.samples)

    def reference_time(self, start: float, end: float) -> float:
        """``end - start`` at the reference speed, judged by the samples
        taken within that interval, or the ``NEAREST`` closest to it."""

        def distance(at: float) -> float:
            return max(start - at, at - end, 0.0)

        ranked = sorted(self.samples, key=lambda s: distance(s[0]))
        inside = sum(1 for at, _cpu in ranked if distance(at) == 0.0)
        near = ranked[: max(inside, NEAREST)]
        return (end - start) * REFERENCE_S / statistics.median(cpu for _at, cpu in near)
