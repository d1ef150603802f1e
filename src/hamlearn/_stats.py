"""Small statistics helpers for scaling fits."""

from __future__ import annotations

import numpy as np


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x)."""
    lx = np.log(np.asarray(xs, dtype=float))
    ly = np.log(np.asarray(ys, dtype=float))
    if lx.size < 2:
        raise ValueError("need at least two points for a slope")
    return float(np.polyfit(lx, ly, 1)[0])
