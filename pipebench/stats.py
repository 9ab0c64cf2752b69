"""Order statistics, result digests and memory readings for the benchmark."""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
import os
import resource
import time
from typing import Iterable, List, Sequence, Tuple

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def tail(samples: Sequence[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least :data:`TAIL_BEYOND` samples
    beyond it: ``(value, percentile, sample count)``.

    With ``n`` sorted samples the ``k``-th smallest has ``n - k`` above
    it, so ``k = n - 10`` and the percentile is ``100 k / n``.  Below 50
    (fewer than 20 samples) the median is reported instead, at 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of no samples")
    k = n - TAIL_BEYOND
    if 2 * k < n:
        return median(ordered), 50.0, n
    return ordered[k - 1], 100.0 * k / n, n


# --------------------------------------------------------- calibration

#: seconds the calibration kernel takes on a quiet 2-core x86 container
#: (Xeon, 2.1 GHz, Python 3.11, numpy 2.4)
CALIBRATION_REF = 0.006


def calibration_kernel() -> float:
    """Fixed host work that does not touch repro: Python arithmetic and
    dict traffic, then small and medium numpy operations — the mix the
    simulator spends its time in.  Returns its wall time."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    table = {}
    for i in range(24000):
        acc += (i * i) % 7
        table[i & 255] = acc
    small = np.arange(32, dtype=np.int64)
    for _ in range(600):
        small = (small * 3 + 1) & 0xFFFF
        small.sum()
    big = np.arange(1 << 15, dtype=np.int64)
    for _ in range(24):
        big = np.cumsum(big & 0xFF)
    return time.perf_counter() - t0


class Calibrator:
    """Samples :func:`calibration_kernel` through a run.

    The machine's speed drifts by tens of percent over seconds to
    minutes (other tenants share it).  A time measured over an interval
    is *calibrated* by scaling it with ``CALIBRATION_REF`` over the
    median kernel time sampled in and around that interval, which
    states it in seconds of a machine on which the kernel takes
    ``CALIBRATION_REF``.
    """

    #: seconds between samples
    interval = 0.25
    #: samples this far either side of an interval calibrate it
    pad = 2.0

    def __init__(self):
        self.samples: List[Tuple[float, float]] = []   # (midpoint, s)
        calibration_kernel()                            # warm

    def sample(self) -> None:
        t0 = time.perf_counter()
        seconds = calibration_kernel()
        self.samples.append((t0 + seconds / 2, seconds))

    def due(self) -> bool:
        """Whether the last sample is at least ``interval`` old."""
        return not self.samples \
            or time.perf_counter() - self.samples[-1][0] >= self.interval

    def factor(self, t0: float, t1: float) -> float:
        """``CALIBRATION_REF`` over the kernel's time near ``[t0, t1]``."""
        near = [s for t, s in self.samples
                if t0 - self.pad <= t <= t1 + self.pad]
        if not near:        # a long interval: the samples either side
            before = [s for t, s in self.samples if t < t0][-1:]
            after = [s for t, s in self.samples if t > t1][:1]
            near = before + after
        return CALIBRATION_REF / median(near)


# ------------------------------------------------------------- digests

def canon(value):
    """A JSON-able canonical form of a simulated result.

    Floats keep 12 significant digits so a digest does not hinge on the
    last bits of a summation order; arrays are hashed by dtype, shape
    and bytes.  Unknown types raise, so nothing is digested by ``repr``.
    """
    import numpy as np

    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, enum.Enum):
        return value.name
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isnan(value) or math.isinf(value):
            return repr(value)
        return format(value, ".12g")
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return {"dtype": str(data.dtype), "shape": list(data.shape),
                "sha256": hashlib.sha256(data.tobytes()).hexdigest()}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: canon(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {str(canon(k)): canon(v) for k, v in
                sorted(value.items(), key=lambda kv: str(canon(kv[0])))}
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    raise TypeError(f"cannot digest a {type(value).__name__}")


def digest(value) -> str:
    text = json.dumps(canon(value), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_digest(pairs: Iterable[Tuple[str, str]]) -> str:
    """One digest over every distinct ``(op key, digest)`` of a run."""
    text = "\n".join(f"{k} {d}" for k, d in sorted(set(pairs)))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -------------------------------------------------------------- memory

def peak_rss_mb(pids: Iterable[int] = ()) -> float:
    """Peak resident memory of this process plus each live *pid*."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        total_kib += _vm_hwm_kib(pid)
    return total_kib / 1024.0


def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def pick(rng, items: List):
    return items[int(rng.integers(len(items)))]


def in_tree(path: str, root: str) -> bool:
    path, root = os.path.realpath(path), os.path.realpath(root)
    return os.path.commonpath([path, root]) == root

