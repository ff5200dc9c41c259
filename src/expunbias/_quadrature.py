"""Vectorized adaptive Gauss-Kronrod quadrature.

A 15-point Kronrod rule with embedded 7-point Gauss rule, applied per
segment; segments whose error dominates are bisected until the summed error
estimate drops below the relative tolerance.  The integrand is called on
whole arrays of abscissae (one call per refinement round), which keeps the
oracle sweeps fast even when the integrand itself is numpy-vectorized and
expensive per call.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .errors import QuadratureError

# Kronrod-15 abscissae on [-1, 1] and the paired weights (Gauss-7 weights are
# zero on the Kronrod-only nodes).
_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_W_KRONROD = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_W_GAUSS = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])
# refinement rounds before giving up; each round bisects at least one segment
_MAX_ROUNDS = 200


def _evaluate_segments(f: Callable[[np.ndarray], np.ndarray],
                       lo: np.ndarray, hi: np.ndarray):
    """Return (kronrod, |kronrod - gauss|) estimates for each [lo, hi]."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = mid[None, :] + half[None, :] * _NODES[:, None]
    fx = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    k15 = half * np.einsum("i,ij->j", _W_KRONROD, fx)
    g7 = half * np.einsum("i,ij->j", _W_GAUSS, fx)
    return k15, np.abs(k15 - g7)


def adaptive_gauss_kronrod(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    breakpoints: Iterable[float] = (),
    rel_tol: float = 1e-9,
    max_segments: int = 4096,
) -> tuple[float, float, int]:
    """Integrate ``f`` over [a, b], splitting first at ``breakpoints``.

    Returns ``(value, err_estimate, n_segments)``; raises
    :class:`QuadratureError` (carrying the partial result) if the error
    target is not met within ``max_segments`` subintervals.
    """
    if not (b > a):
        raise QuadratureError(f"empty integration interval [{a}, {b}]")
    pts = sorted({float(p) for p in breakpoints if a < p < b})
    edges = np.array([a, *pts, b], dtype=float)
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    vals, errs = _evaluate_segments(f, lo, hi)

    for _ in range(_MAX_ROUNDS):
        total = float(np.sum(vals))
        err_total = float(np.sum(errs))
        if err_total <= rel_tol * abs(total) or err_total == 0.0:
            return total, err_total, lo.size
        if lo.size >= max_segments:
            break
        # bisect the segments holding the top half of the error budget
        order = np.argsort(errs)[::-1]
        cum = np.cumsum(errs[order])
        n_split = int(np.searchsorted(cum, 0.5 * err_total)) + 1
        n_split = min(n_split, max_segments - lo.size, lo.size)
        split = order[:max(n_split, 1)]
        keep = np.ones(lo.size, dtype=bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[keep], lo[split], mid])
        new_hi = np.concatenate([hi[keep], mid, hi[split]])
        new_vals, new_errs = _evaluate_segments(f, np.concatenate([lo[split], mid]),
                                                np.concatenate([mid, hi[split]]))
        vals = np.concatenate([vals[keep], new_vals])
        errs = np.concatenate([errs[keep], new_errs])
        lo, hi = new_lo, new_hi

    total = float(np.sum(vals))
    err_total = float(np.sum(errs))
    raise QuadratureError(
        f"quadrature did not reach rel_tol={rel_tol:g} "
        f"(err={err_total:.3e}, value={total:.6e}, segments={lo.size})",
        partial_value=total, err_estimate=err_total, segments=int(lo.size),
    )
