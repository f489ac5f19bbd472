"""Reference shift search for the open-chain fit.

A verbatim copy of ``_shift_grid_sse`` and ``_best_shift`` as
``ptchain.fits`` had them before the scans took feasibility per shift
from scalars and the rescans tested unimodality in one Python pass.
``test_fits`` requires the same SSE arrays, the same shifts and the same
refusals from both, bit for bit.
"""

from __future__ import annotations

import numpy as np

from ptchain.errors import NoConvergence


def _shift_grid_sse(ells: np.ndarray, y: np.ndarray, L: float,
                    grid: np.ndarray) -> np.ndarray:
    """SSE of the two-parameter shifted fit at every shift of the grid.

    The closed form of :func:`_linear_fit` on :func:`_shifted_cc_design`,
    for all shifts in one pass: the least-squares slope of the centred data,
    then the residual sum; infeasible shifts get inf.
    """
    d = 2.0 * grid[:, None]
    # the sine argument is monotone in l: the end sizes decide feasibility
    ends = (np.array([ells.min(), ells.max()]) + d) / (L + d)
    feasible = np.all((ends > 0.0) & (ends < 1.0), axis=1)
    x = ells + d[feasible]
    x /= L + d[feasible]
    x *= np.pi
    np.log(np.sin(x, out=x), out=x)
    x -= x.mean(axis=1, keepdims=True)
    yc = y - y.mean()
    slope = (x @ yc) / np.einsum("ij,ij->i", x, x)
    x *= slope[:, None]
    np.subtract(yc, x, out=x)
    sse = np.full(len(grid), np.inf)
    sse[feasible] = np.einsum("ij,ij->i", x, x)
    return sse


def _best_shift(ells: np.ndarray, y: np.ndarray, L: float,
                bounds: tuple[float, float]) -> float:
    """Least-SSE extrapolation shift on a scan and rescans of the bounds."""
    lo = max(bounds[0], -float(ells.min()) / 2.0 + 1e-6)
    if lo >= bounds[1]:
        raise NoConvergence("no feasible extrapolation shift in bounds")
    grid = np.linspace(lo, bounds[1], 512)
    sses = _shift_grid_sse(ells, y, L, grid)
    if not np.any(np.isfinite(sses)):
        raise NoConvergence("shifted fit infeasible on the whole search range")
    # at most eight 16-fold narrowings, which end under 1e-12 of the bounds.
    # The SSE has one minimum in a bracket until it reaches its rounding
    # floor, where it rises and falls at random and a rescan only picks
    # another point of that flat band: the first rescan whose SSE is not
    # unimodal ends the search, at the best point of the rescan before.
    b = int(np.argmin(sses))
    shift = grid[b]
    for _ in range(8):
        grid = np.linspace(grid[max(b - 1, 0)], grid[min(b + 1, len(grid) - 1)], 33)
        sses = _shift_grid_sse(ells, y, L, grid)
        b = int(np.argmin(sses))
        if not (np.all(np.diff(sses[: b + 1]) <= 0) and np.all(np.diff(sses[b:]) >= 0)):
            break
        shift = grid[b]
    return float(shift)

