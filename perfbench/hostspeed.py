"""Host-speed calibration, so that timings from a host whose speed drifts compare.

On a shared host the speed of the same code drifts by 20-50 % over minutes:
a fixed 4-qubit reconstruction pass repeated for four minutes with one seed
ranged 0.70-1.27 s, and CPU time (`time.thread_time`) drifted exactly as much
as wall time, so the drift is not time taken away from the process but a
slower machine, and it switches within seconds between a fast and a slow
state about 1.5x apart, with every part of a process (imports, numpy, plain
Python) slowing alike.

The benchmark therefore runs a fixed calibration kernel in the process that
does the timed work, right before and right after each op, never inside a
timed region, and multiplies the op's time by a speed factor,
REFERENCE_S / mean(kernel times that bracket it), so that times read as they
would on a host where the kernel takes REFERENCE_S. A pass is scaled by the
mean of the kernel runs in it, a set-up by the kernel run at its end. The
kernel must run in the same process: the two vCPUs change state separately,
and a kernel in the parent has no correlation with the speed of a `pqst`
child. It mixes what the workloads spend their time on (small complex matrix
products, elementwise numpy work and reductions, and plain interpreter work)
and uses no pqst code, so a change to pqst moves the scaled times and not the
factors.

The in-process workers run the kernel with a 16x16 LAPACK eigen solve in each
round: over four minutes of 4-qubit reconstructions it halved the spread of
20-second medians against the kernel without it (0.022 against 0.046). The
`pqst` children of `cli_cold` run it without, because loading LAPACK would add
1.4 MB to a short command's peak RSS; their spreads are as low without it.
For the same reason the inputs are built without numpy.random (6 MB).
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.010
# rounds per run, sized so that each kind takes about REFERENCE_S on a 2-vCPU host
_ROUNDS = {False: 112, True: 56}
_n = np.arange(4096.0)
_A = (np.cos(_n[:256]) + 1j * np.sin(0.7 * _n[:256])).reshape(16, 16)
_H, _V = _A + _A.conj().T, np.sin(1.3 * _n)


def kernel_s(lapack: bool) -> float:
    """Wall time of one run of the fixed kernel, with or without the eigen solves."""
    h, v = _H, _V
    if lapack:
        np.linalg.eigh(h)  # the first LAPACK call of a process is slower than the rest
    t0 = time.perf_counter()
    for _ in range(_ROUNDS[lapack]):
        if lapack:
            np.linalg.eigh(h)
        h @ h @ h
        (h * h.conj()).real.sum(axis=0)
        np.sort(v)
        v.sum()
        acc = 0
        for j in range(300):
            acc += j * j
        {j: str(j) for j in range(100)}
    return time.perf_counter() - t0


def factor(samples) -> float:
    """Speed factor of an interval that these kernel times bracket or fall in."""
    return REFERENCE_S * len(samples) / sum(samples)
