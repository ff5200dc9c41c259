"""Vectorized adaptive Gauss-Kronrod quadrature.

A 15-point Kronrod rule with embedded 7-point Gauss rule, applied per
segment; segments whose error dominates are bisected until the summed error
estimate drops below the relative tolerance.  The integrand is called on
whole arrays of abscissae (one call per refinement round), which keeps the
oracle sweeps fast even when the integrand itself is numpy-vectorized and
expensive per call.  ``gauss_kronrod_row``, the one entry point, refines
several integrals in lockstep, with one integrand call per round for all of
them; a single integral is a row of one.
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


def gauss_kronrod_row(f: Callable[[list[int], list[np.ndarray]], list],
                      intervals: list[tuple[float, float, Iterable[float]]], *,
                      rel_tol: float = 1e-9, max_segments: int = 4096) -> list:
    """Integrate over each ``(a, b, breakpoints)`` of ``intervals`` at once.

    ``f(active, xs)`` takes the indices of the integrals still refining and
    one array of abscissae for each, and returns for each an array of values
    or an exception, which ends that integral.  Each integral refines
    exactly as it would alone, so its value, error estimate and segment
    count do not depend on the others; one call of ``f`` per round serves
    them all.  Returns per interval ``(value, err_estimate, n_segments)`` or
    the exception that ended it, a :class:`QuadratureError` where the error
    target was not met within ``max_segments`` subintervals.
    """
    out: list = [None] * len(intervals)
    # per refining integral: its segments, the values and error estimates of
    # those kept from the last round, and the new segments to evaluate
    live = {}
    for i, (a, b, breakpoints) in enumerate(intervals):
        if not (b > a):
            out[i] = QuadratureError(f"empty integration interval [{a}, {b}]")
            continue
        pts = sorted({float(p) for p in breakpoints if a < p < b})
        edges = np.array([a, *pts, b], dtype=float)
        lo, hi = edges[:-1].copy(), edges[1:].copy()
        live[i] = (lo, hi, None, None, (lo, hi))

    for rnd in range(_MAX_ROUNDS + 1):
        if not live:
            break
        halves = [0.5 * (b - a) for *_, (a, b) in live.values()]
        nodes = [(0.5 * (b + a))[None, :] + half[None, :] * _NODES[:, None]
                 for (*_, (a, b)), half in zip(live.values(), halves)]
        fxs = f(list(live), [x.ravel() for x in nodes])
        refining = {}
        for (i, (lo, hi, vals, errs, _)), x, half, fx in zip(live.items(), nodes, halves, fxs):
            if isinstance(fx, Exception):
                out[i] = fx
                continue
            fx = np.asarray(fx, dtype=float).reshape(x.shape)
            k15 = half * np.einsum("i,ij->j", _W_KRONROD, fx)
            g7 = half * np.einsum("i,ij->j", _W_GAUSS, fx)
            err = np.abs(k15 - g7)
            vals = k15 if vals is None else np.concatenate([vals, k15])
            errs = err if errs is None else np.concatenate([errs, err])
            total = float(vals.sum())
            err_total = float(errs.sum())
            if rnd < _MAX_ROUNDS and (err_total <= rel_tol * abs(total) or err_total == 0.0):
                out[i] = (total, err_total, lo.size)
            elif rnd == _MAX_ROUNDS or lo.size >= max_segments:
                out[i] = QuadratureError(
                    f"quadrature did not reach rel_tol={rel_tol:g} "
                    f"(err={err_total:.3e}, value={total:.6e}, segments={lo.size})",
                    partial_value=total, err_estimate=err_total, segments=int(lo.size))
            else:
                # bisect the segments holding the top half of the error budget
                order = np.argsort(errs)[::-1]
                cum = np.cumsum(errs[order])
                n_split = int(np.searchsorted(cum, 0.5 * err_total)) + 1
                n_split = min(n_split, max_segments - lo.size, lo.size)
                split = order[:max(n_split, 1)]
                keep = np.ones(lo.size, dtype=bool)
                keep[split] = False
                mid = 0.5 * (lo[split] + hi[split])
                refining[i] = (np.concatenate([lo[keep], lo[split], mid]),
                               np.concatenate([hi[keep], mid, hi[split]]), vals[keep],
                               errs[keep], (np.concatenate([lo[split], mid]),
                                            np.concatenate([mid, hi[split]])))
        live = refining
    return out
