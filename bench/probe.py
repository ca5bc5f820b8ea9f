"""A fixed piece of work that measures how fast the host runs right now.

The benchmark times fibquiver on a shared host whose speed drifts by up to
2x over seconds to minutes. It runs this probe between jobs and reports each
job's time scaled by PROBE_REF_S / (the probe's mean time in the same pass),
that is, in seconds of a host on which the probe takes PROBE_REF_S. A change
to fibquiver cannot change the probe: it shares no code with the program and
keeps no state between calls. Its mix (big-integer products and sums,
dict updates, int -> str formatting) is the kind of work fibquiver does.

Run as a script, it prints the probe's median time on this host.
"""

from __future__ import annotations

import time

# The probe's time on the reference host, about its median on an idle
# 2-CPU host under CPython 3.11. Changing it rescales every reported time.
PROBE_REF_S = 0.002

_X = 3 ** 15000


def probe() -> float:
    """Seconds the fixed work took."""
    t0 = time.perf_counter()
    y = _X
    for _ in range(2):
        y = (y * _X) >> 20000
    a, b = 0, 1
    for _ in range(2000):
        a, b = b, a + b
    counts: dict[int, int] = {}
    for i in range(2000):
        counts[i % 101] = counts.get(i % 101, 0) + i * i
    ",".join(str(i * 7919) for i in range(1000))
    return time.perf_counter() - t0


if __name__ == "__main__":
    import statistics

    print(f"{statistics.median(probe() for _ in range(200)) * 1e3:.3f} ms")
