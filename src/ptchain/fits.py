"""Finite-size scaling fits and disorder-ensemble statistics.

Three fit families:

* periodic-chain entropy against log sin(pi l / L) (slope = c/3);
* open-chain regularized entropy against the boundary-shifted form
  (c/6) log sin(pi (l + 2 dl) / (L + 2 dl)) + s0, which keeps its extremum
  at half chain; dl is the least-SSE point of a 512-point scan of the
  feasible bounds, refined by up to eight 33-point rescans of the best
  bracket, which stop once the SSE over a rescan has more than one
  minimum, the sign that it has reached its rounding floor;
* ground-state-energy Casimir fits, E0 = eps L + A / L (periodic) and
  E0 = eps L + b + A / (L + Delta_L) (open) with an integer extrapolation
  length Delta_L, either given or scanned over [-4, 4].

Trim policies remove UV-contaminated small-l points. The open-chain rule
trims until the fit RMSE reaches its threshold; on data whose RMSE floor
sits above the threshold, trimming stops at the marginal-improvement
elbow instead of eating the whole data set.

The shift search is the cost of an open-chain fit. Each SSE of a scan
takes one sin and one log per grid point and size (float64 ``np.sin`` and
``np.log`` run element by element), so a 512-point scan of 50 sizes is
about 25,600 of each; the rest is a few whole-array passes. A 33-point
rescan is mostly fixed per-call cost, which the search keeps small: its
grid comes from a cached ramp in ``np.linspace``'s arithmetic, its means
skip their Python wrappers, and its unimodality test is one Python pass
over the differences. The search runs in float64 whatever the type of its
bounds: float32 bounds give a float64 grid, where ``np.linspace`` would
have made a float32 one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from .errors import InsufficientPoints, NoConvergence, PTChainError
from .entanglement import (
    DEFAULT_TOLERANCES,
    Prescription,
    ToleranceSet,
    _subsystem_sizes,
    entropy_profile,
)
from .lattice import Boundary, ChainSpec, DisorderProfile, _integers
from .rng import disorder_offsets
from .spectral import (TOL_ZERO, _one_blas_thread, _scipy_lapack, _usable_cpus,
                       ground_state_energy)


@dataclass(frozen=True)
class FixedCount:
    """Drop the n smallest-l points unconditionally."""

    n: int = 0


@dataclass(frozen=True)
class UntilSSE:
    """Drop smallest-l points until the sum of squared residuals passes."""

    threshold: float = 1e-4


@dataclass(frozen=True)
class UntilRMSE:
    """Drop smallest-l points until the fit RMSE passes.

    ``stall`` is the relative per-step improvement below which trimming is
    considered converged when the threshold itself is unreachable; the fit
    at the stall point is returned.
    """

    threshold: float = 1e-4
    stall: float = 0.10


TrimPolicy = FixedCount | UntilSSE | UntilRMSE


class _FitRule(NamedTuple):
    """The trim policies a fit takes and the fewest points it fits after
    trimming; each fit checks its arguments against its rule, and the
    command line checks a config against the same rule before it runs."""

    trims: tuple[type, ...]
    min_points: int


#: boundary -> the rule of its cc fit (cc_fit_pbc, cc_fit_obc)
_CC_RULES = {Boundary.PBC: _FitRule((UntilSSE, FixedCount), 4),
             Boundary.OBC: _FitRule((UntilRMSE, FixedCount), 5)}
_CASIMIR_RULE = _FitRule((), 4)


@dataclass(frozen=True)
class FitResult:
    coefficients: dict[str, float]
    stderr: dict[str, float]
    sse: float
    rmse: float
    trim_count: int
    n_points: int
    model: str


@dataclass(frozen=True)
class EnsembleStats:
    """Per-size mean and standard error over disorder realizations."""

    ells: np.ndarray
    re_values: np.ndarray  # (n_realizations, n_ells)
    im_values: np.ndarray
    n_realizations: int
    base_seed: int
    workers: int = 1  # processes that ran the realizations; 1 is serial

    @property
    def mean_re(self) -> np.ndarray:
        return self.re_values.mean(axis=0)

    @property
    def mean_im(self) -> np.ndarray:
        return self.im_values.mean(axis=0)

    @property
    def sem_re(self) -> np.ndarray:
        return self.re_values.std(axis=0, ddof=1) / np.sqrt(self.n_realizations)

    @property
    def sem_im(self) -> np.ndarray:
        return self.im_values.std(axis=0, ddof=1) / np.sqrt(self.n_realizations)


def _linear_fit(X: np.ndarray, y: np.ndarray, names: list[str], model: str,
                trim_count: int) -> FitResult:
    # singular values below eps times the largest count as zero (numpy's
    # default cutoff is eps max(n, p))
    coef, *_ = np.linalg.lstsq(X, y, rcond=np.finfo(float).eps)
    res = y - X @ coef
    sse = float(res @ res)
    n, p = X.shape
    rmse = float(np.sqrt(sse / n))
    stderr = {}
    if n > p:
        try:
            cov = np.linalg.inv(X.T @ X) * sse / (n - p)
            stderr = {nm: float(np.sqrt(max(cov[i, i], 0.0)))
                      for i, nm in enumerate(names)}
        except np.linalg.LinAlgError:
            stderr = {}
    return FitResult(
        coefficients=dict(zip(names, (float(c) for c in coef))),
        stderr=stderr,
        sse=sse,
        rmse=rmse,
        trim_count=trim_count,
        n_points=n,
        model=model,
    )


def cc_fit_pbc(
    ells, re_entropy, L: int, trim: TrimPolicy = FixedCount(0)
) -> FitResult:
    """Linear fit Re S = (c/3) log sin(pi l / L) + s0 for periodic chains."""
    rule = _CC_RULES[Boundary.PBC]
    if not isinstance(trim, rule.trims):
        raise ValueError(f"unsupported trim policy for cc_fit_pbc: {trim}")
    ells = np.asarray(ells, dtype=float)
    y = np.asarray(re_entropy, dtype=float)
    order = np.argsort(ells)
    ells, y = ells[order], y[order]

    def fit_from(k: int) -> FitResult:
        if len(ells) - k < rule.min_points:
            raise InsufficientPoints(
                f"{len(ells) - k} points left after trimming {k}; "
                f"need >= {rule.min_points}"
            )
        e = ells[k:]
        X = _shifted_cc_design(e, float(L), 0.0)
        if X is None:
            outside = ", ".join(f"{x:g}" for x in e[(e <= 0) | (e >= L)])
            raise ValueError(f"subsystem sizes {outside} lie outside (0, L = {L})")
        return _linear_fit(X, y[k:], ["c_over_3", "s0"], "cc_pbc", k)

    if isinstance(trim, FixedCount):
        return fit_from(trim.n)
    k = 0
    while True:
        result = fit_from(k)
        if result.sse <= trim.threshold:
            return result
        k += 1


def _shifted_cc_design(ells: np.ndarray, L: float, dl: float) -> np.ndarray | None:
    arg = (ells + 2.0 * dl) / (L + 2.0 * dl)
    if np.any(arg <= 0.0) or np.any(arg >= 1.0):
        return None
    x = np.log(np.sin(np.pi * arg))
    return np.vstack([x, np.ones_like(x)]).T


def _shift_grid_sse(ells: np.ndarray, y: np.ndarray, L: float,
                    grid: np.ndarray) -> np.ndarray:
    """SSE of the two-parameter shifted fit at every shift of the grid.

    The closed form of :func:`_linear_fit` on :func:`_shifted_cc_design`,
    for all shifts in one pass: the least-squares slope of the centred data,
    then the residual sum; infeasible shifts get inf.

    Cost: one sin and one log per grid point and size, the bulk of a scan
    (float64 ``np.sin`` and ``np.log`` run element by element), and a few
    whole-array passes. The sine argument is monotone in l, so the two end
    sizes decide a shift's feasibility, one scalar each per shift, and only
    the feasible shifts' rows are formed.
    """
    d = 2.0 * grid
    span = L + d
    first = (ells.min() + d) / span
    last = (ells.max() + d) / span
    feasible = (first > 0.0) & (first < 1.0) & (last > 0.0) & (last < 1.0)
    d, span = d[feasible], span[feasible]
    x = ells + d[:, None]
    x /= span[:, None]
    x *= np.pi
    np.log(np.sin(x, out=x), out=x)
    # x.mean(axis=1) and y.mean(), without their Python wrappers
    mean = np.add.reduce(x, axis=1, keepdims=True)
    mean /= x.shape[1]
    x -= mean
    yc = y - np.add.reduce(y) / len(y)
    slope = (x @ yc) / np.einsum("ij,ij->i", x, x)
    x *= slope[:, None]
    np.subtract(yc, x, out=x)
    sse = np.full(len(grid), np.inf)
    sse[feasible] = np.einsum("ij,ij->i", x, x)
    return sse


@cache
def _ramp(num: int) -> np.ndarray:
    """0, 1, ..., num - 1 in float64, the ramp that ``np.linspace`` scales;
    read-only, since every call shares it."""
    ramp = np.arange(num, dtype=float)
    ramp.flags.writeable = False
    return ramp


def _linspace(start: float, stop: float, num: int) -> np.ndarray:
    """``np.linspace(start, stop, num)`` of two floats, num >= 2, in its
    arithmetic on a cached ramp: ramp * step + start with step =
    (stop - start) / (num - 1), or ramp / (num - 1) * (stop - start) where
    that step is 0, and the last point set to stop."""
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0:
        grid = _ramp(num) / div
        grid *= delta
    else:
        grid = _ramp(num) * step
    grid += start
    grid[-1] = stop
    return grid


def _unimodal(sses: np.ndarray, b: int) -> bool:
    """Whether ``np.diff(sses)`` is <= 0 up to the minimum at b and >= 0
    after it, in one Python pass over the differences."""
    s = sses.tolist()
    for i in range(len(s) - 1):
        step = s[i + 1] - s[i]
        if not (step <= 0 if i < b else step >= 0):
            return False
    return True


def _best_shift(ells: np.ndarray, y: np.ndarray, L: float,
                bounds: tuple[float, float]) -> float:
    """Least-SSE extrapolation shift on a scan and rescans of the bounds,
    taken as float64."""
    lo = max(float(bounds[0]), -float(ells.min()) / 2.0 + 1e-6)
    hi = float(bounds[1])
    if lo >= hi:
        raise NoConvergence("no feasible extrapolation shift in bounds")
    grid = _linspace(lo, hi, 512)
    sses = _shift_grid_sse(ells, y, L, grid)
    if not np.isfinite(sses).any():
        raise NoConvergence("shifted fit infeasible on the whole search range")
    # at most eight 16-fold narrowings, which end under 1e-12 of the bounds.
    # The SSE has one minimum in a bracket until it reaches its rounding
    # floor, where it rises and falls at random and a rescan only picks
    # another point of that flat band: the first rescan whose SSE is not
    # unimodal ends the search, at the best point of the rescan before.
    b = int(sses.argmin())
    shift = grid[b]
    for _ in range(8):
        left, right = grid[max(b - 1, 0)], grid[min(b + 1, len(grid) - 1)]
        grid = _linspace(float(left), float(right), 33)
        sses = _shift_grid_sse(ells, y, L, grid)
        b = int(sses.argmin())
        if not _unimodal(sses, b):
            break
        shift = grid[b]
    return float(shift)


def cc_fit_obc(
    ells,
    re_entropy,
    L: int,
    trim: TrimPolicy = UntilRMSE(),
    shift_bounds: tuple[float, float] | None = None,
) -> FitResult:
    """Boundary-shifted fit for open chains.

    Inner linear regression for (c/6, s0) at fixed shift, outer scan
    over the shift, trimming smallest-l points per the policy.
    """
    rule = _CC_RULES[Boundary.OBC]
    if not isinstance(trim, rule.trims):
        raise ValueError(f"unsupported trim policy for cc_fit_obc: {trim}")
    ells = np.asarray(ells, dtype=float)
    y = np.asarray(re_entropy, dtype=float)
    order = np.argsort(ells)
    ells, y = ells[order], y[order]
    bounds = shift_bounds or (-L / 4.0, L / 4.0)

    def fit_from(k: int) -> FitResult:
        e, yy = ells[k:], y[k:]
        if len(e) < rule.min_points:
            raise InsufficientPoints(
                f"{len(e)} points left after trimming {k}; "
                f"need >= {rule.min_points}"
            )
        dl = _best_shift(e, yy, float(L), bounds)
        X = _shifted_cc_design(e, float(L), dl)
        out = _linear_fit(X, yy, ["c_over_6", "s0"], "cc_obc_shifted", k)
        out.coefficients["delta_ell"] = dl
        return out

    if isinstance(trim, FixedCount):
        return fit_from(trim.n)

    prev: FitResult | None = None
    k = 0
    while True:
        try:
            current = fit_from(k)
        except InsufficientPoints:
            if prev is not None:
                return prev
            raise
        if current.rmse <= trim.threshold:
            return current
        if prev is not None and current.rmse > (1.0 - trim.stall) * prev.rmse:
            # improvement stalled before reaching the threshold
            return prev if prev.rmse <= current.rmse else current
        prev = current
        k += 1


def casimir_fit(
    sizes,
    re_energy,
    boundary: str,
    delta_L: int | None = None,
    scan_range: tuple[int, int] = (-4, 4),
) -> FitResult:
    """Casimir fit of ground-state energies against system size.

    ``boundary`` is "pbc" (basis {L, 1/L}, no constant) or "obc" (basis
    {L, 1, 1/(L + Delta_L)}). For open chains ``delta_L`` is the integer
    extrapolation length; ``None`` scans ``scan_range`` and keeps the
    minimal-SSE value. A repeated size adds no point: the fit needs four
    distinct sizes.
    """
    sizes = np.asarray(sizes, dtype=float)
    y = np.asarray(re_energy, dtype=float)
    distinct = len(np.unique(sizes))
    if distinct < _CASIMIR_RULE.min_points:
        raise InsufficientPoints(
            f"{distinct} distinct sizes; need >= {_CASIMIR_RULE.min_points}")
    if boundary == "pbc":
        X = np.vstack([sizes, 1.0 / sizes]).T
        return _linear_fit(X, y, ["eps_bulk", "slope"], "casimir_pbc", 0)
    if boundary != "obc":
        raise ValueError(f"boundary must be 'pbc' or 'obc', got {boundary!r}")

    def fit_at(dl: int) -> FitResult:
        X = np.vstack([sizes, np.ones_like(sizes), 1.0 / (sizes + dl)]).T
        out = _linear_fit(X, y, ["eps_bulk", "b", "slope"], "casimir_obc", 0)
        out.coefficients["delta_L"] = float(dl)
        return out

    if delta_L is not None:
        return fit_at(int(delta_L))
    candidates = [fit_at(d) for d in range(scan_range[0], scan_range[1] + 1)]
    return min(candidates, key=lambda r: r.sse)


def casimir_energy_table(
    spec: ChainSpec, sizes, imag_tol: float = 1e-9, tol_zero: float = TOL_ZERO
) -> tuple[np.ndarray, np.ndarray]:
    """Re E0 over the distinct system sizes, sorted, asserting Im E0
    vanishes at half filling.

    A size must be integral: 8.7 is refused, not computed as L = 8.
    """
    sizes = np.asarray(sorted(set(_integers(sizes, "system sizes"))))
    energies = []
    for L in sizes:
        e0 = ground_state_energy(replace(spec, cells=int(L)), tol_zero)
        if abs(e0.imag) > imag_tol * max(1.0, abs(e0.real)):
            raise NoConvergence(
                f"Im E0 = {e0.imag:.2e} at L={L}; half filling did not cancel "
                "the imaginary pairs"
            )
        energies.append(e0.real)
    return sizes, np.asarray(energies)


def _one_realization(template: ChainSpec, bound: float, base_seed: int,
                     ells: np.ndarray, prescription: Prescription,
                     tolerances: ToleranceSet, tol_zero: float,
                     r: int) -> np.ndarray:
    seed = base_seed + r
    offsets = disorder_offsets(seed, bound, template.cells)
    spec = replace(template, disorder=DisorderProfile(offsets))
    context = f"realization {r} (seed {seed})"
    try:
        with _one_blas_thread(_scipy_lapack()):
            prof = entropy_profile(spec, ells, prescription, tolerances, tol_zero)
    except PTChainError as exc:
        # the package's own types take one message
        raise type(exc)(f"{context}: {exc}") from exc
    except Exception as exc:
        # a foreign type keeps its constructor arguments, which a worker
        # process pickles back to the parent; the context rides as a note
        exc.add_note(context)
        raise
    return prof.values


def disorder_ensemble(
    template: ChainSpec,
    delta_bound: float,
    n_realizations: int,
    base_seed: int,
    ells,
    prescription: Prescription = Prescription.REGULARIZED,
    jobs: int | None = None,
    tolerances: ToleranceSet = DEFAULT_TOLERANCES,
    tol_zero: float = TOL_ZERO,
) -> EnsembleStats:
    """Seeded disorder ensemble of entropy profiles.

    Realization r draws its per-cell offsets from a SplitMix64 stream with
    seed ``base_seed + r``; aggregation is by realization index.
    ``jobs`` caps the worker processes (``None``: every CPU this process
    may use), which are further capped at the realization count and the
    CPU count; one worker runs serially, without a pool.

    A realization is one dense eigensolve, which a second BLAS thread does
    not speed up, so every realization runs on one BLAS thread and the
    cores go to processes instead: the ensemble pins the pool to one thread
    around the serial loop or the pool, whose forked workers inherit it,
    and restores the caller's count after it; each realization pins it
    again where it is not at one thread. The statistics are then
    bit-identical for any worker count, completion order or caller's thread
    count; where the dense route's BLAS offers no thread control, they are
    identical only at equal BLAS thread counts.
    """
    if template.disorder is not None:
        raise ValueError("template must be disorder-free; offsets are drawn per realization")
    if not 0.0 < delta_bound < min(template.v, template.u):
        raise ValueError(
            f"delta_bound must lie in (0, min(v, u)) = (0, {min(template.v, template.u)})"
        )
    if n_realizations < 2:
        raise ValueError(
            f"a standard error needs n_realizations >= 2, got {n_realizations}"
        )
    if jobs is not None and jobs < 1:
        raise ValueError(f"jobs must be >= 1 or None, got {jobs}")
    ells = _subsystem_sizes(ells, template.cells)
    run = partial(_one_realization, template, delta_bound, base_seed, ells,
                  prescription, tolerances, tol_zero)
    # more workers than realizations or CPUs only cost forks
    cpus = _usable_cpus()
    workers = min(cpus if jobs is None else jobs, n_realizations, cpus)
    # every realization pins the dense route's BLAS: bind it and pin it
    # here, before the pool forks, so that each worker inherits one thread
    # and its pin calls nothing (a forked OpenBLAS would start a fresh
    # helper thread to set the count)
    with _one_blas_thread(_scipy_lapack()):
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                values = list(pool.map(run, range(n_realizations)))
        else:
            values = list(map(run, range(n_realizations)))
    values = np.array(values, dtype=complex)
    return EnsembleStats(
        ells=ells,
        re_values=values.real.copy(),
        im_values=values.imag.copy(),
        n_realizations=n_realizations,
        base_seed=base_seed,
        workers=workers,
    )
