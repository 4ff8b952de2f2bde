"""Host-speed calibration: times in reference seconds.

On a shared host the speed of identical work drifts by half or more over
minutes, as other tenants load the same physical cores.  The operations
this bench measures are bound by the Python interpreter and by numpy calls
on small arrays, and their speed follows the speed of a short fixed mix of
such work run at the same moment.  So while an operation runs, a timer
interrupts it every PROBE_INTERVAL_S seconds to time that mix (a probe,
about 1 ms), and the operation's time is multiplied by the mean of REF_S
over the probe times: its time on a host where the probe takes REF_S.
Probe time itself is taken out.  A change to the program moves this
figure as it moves the clock; a change in host speed moves it far less.

On a shared 2-core x86-64 host, over 4 to 6 minutes of back-to-back
operations per workload, the median of every 35 s window spread between
quartiles by 15.7% (fit-ref), 16.5% (fit-large) and 15.1% (io-roundtrip)
of its median in clock seconds, and by 3.9%, 3.4% and 3.2% with a probe of
interpreter arithmetic alone; sweep-noise, in a quiet period, by 5.9% and
5.0%.  Across separate runs that probe still left 11% on fit-ref: host
contention slows interpreter arithmetic, object and container work, and
small numpy calls by different factors from one moment to the next, and
a mix of the three followed fit-ref more closely (op to op, 6.2% against
11.1%).  A probe timed only before and after each operation did worse
than one inside it.

Set-up runs in child processes; each child probes its own set-up in the
same way and reports the speed to the parent.
"""

import signal
import statistics
import time

PROBE_INTERVAL_S = 0.05
# median probe time on the 2-core x86-64 host the bench was tuned on; it
# only sets the scale, so that reference seconds read close to that
# host's clock seconds
REF_S = 0.001


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a):
        self.a, self.b = a, a + 1

    def at(self, x):
        return self.a * x + self.b


def _probe():
    """Time one fixed mix of the work the operations do: integer
    arithmetic, objects, calls and containers in the interpreter, and
    numpy calls on small arrays.  Host contention slows each part by a
    different factor, so the mix tracks the operations better than any
    one part."""
    import numpy as np  # here, so that importing this module loads no BLAS

    t0 = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += (i * 7) % 13
    seen, out = {}, []
    for i in range(500):
        p = _Point(i)
        out.append(p.at(0.5))
        seen[i & 63] = p
    spd = np.eye(4) + 0.5
    rows = np.linspace(-1.0, 1.0, 150 * 8).reshape(150, 8)
    for _ in range(12):
        acc += np.log(np.diag(np.linalg.cholesky(spd))).sum()
        acc += (rows * 0.5 + 1.0).sum() + np.einsum("ij,ij->i", rows, rows).max()
    return time.perf_counter() - t0


class Probed:
    """Context manager timing its body in clock and reference seconds.

    After the block, ``wall`` and ``cpu`` are its clock wall and CPU
    seconds with the probes taken out (``probe_s``), ``speed`` is the mean
    of REF_S over the probe times (host speed against the reference
    host), and ``ref_wall`` and ``ref_cpu`` are wall and cpu times speed.
    A block shorter than one interval, or run with ``probe=False``, gets
    no probe and a speed of 1.
    """

    def __init__(self, cpu_time, probe=True):
        self._cpu_time = cpu_time
        self._interval = PROBE_INTERVAL_S if probe else 0.0
        self._probes = []

    def _on_alarm(self, signum, frame):
        self._probes.append(_probe())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._on_alarm)
        self._t0, self._c0 = time.perf_counter(), self._cpu_time()
        signal.setitimer(signal.ITIMER_REAL, self._interval, self._interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        wall, cpu = time.perf_counter() - self._t0, self._cpu_time() - self._c0
        signal.signal(signal.SIGALRM, self._old)
        self.probe_s = sum(self._probes)
        self.wall, self.cpu = wall - self.probe_s, cpu - self.probe_s
        self.speed = (statistics.fmean(REF_S / p for p in self._probes)
                      if self._probes else 1.0)
        self.ref_wall, self.ref_cpu = self.wall * self.speed, self.cpu * self.speed
        return False
