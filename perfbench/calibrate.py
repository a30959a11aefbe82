"""Machine-speed probe run around every timed CLI call.

The benchmark shares a 2-vCPU virtual machine with other tenants, and
its CPU speed wanders: for seconds at a time every pass runs up to 1.7x
slower. Over 15 s windows of one 5-minute trace, the median pass time
of `mc_rules` spread by 14% (quartile distance over the median) and the
fastest pass by 36%. Both rise and fall with the time of this probe, a
fixed loop of the same kind of work as sinrmin's hot path (small complex
matrix products and rank-one updates, one Python call per step). Pass
time divided by the probe time measured around it spread by 5% on
`mc_rules` and 1.4% on one `analytic_grid` call in the same trace.

So every timed call is reported at reference speed: its wall time times
REFERENCE_S over the probe's median time around it. REFERENCE_S is a
fixed constant, so values compare across runs and commits on one
machine; it cancels in any ratio of two of them.
"""

import statistics
from time import perf_counter

import numpy as np

REFERENCE_S = 1e-3
_REPEATS = 8
_STEPS = 100
_H = np.random.default_rng(0).standard_normal((4, 4, 2)).view(np.complex128)[..., 0]


def probe_seconds() -> list[float]:
    """Wall times of `_REPEATS` runs of the fixed probe loop."""
    times = []
    for _ in range(_REPEATS):
        start = perf_counter()
        z = np.eye(4, dtype=np.complex128)
        for i in range(_STEPS):
            h = _H[i % 4]
            zh = z @ h
            z = z - np.outer(zh, zh.conj()) / (1.0 + np.vdot(h, zh).real)
        times.append(perf_counter() - start)
    return times


def speed_factor(before: list[float], after: list[float]) -> float:
    """REFERENCE_S over the median probe time around one call."""
    return REFERENCE_S / statistics.median(before + after)
