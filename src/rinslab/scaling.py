"""Saturating power-law fits and compute-optimal round selection.

The model is eps(x) = beta * x**(-c) + eps_inf. Fitting profiles out the
floor: for a candidate eps_inf the residual losses eps - eps_inf are exactly
log-log linear, so an ordinary least squares line gives beta and c in closed
form. The floor is found by scanning a geometric grid of candidates in
(0, min eps] distance below the smallest loss, then polishing the best cell
with a golden-section search. The returned residual is therefore never worse
than any grid candidate's.

optimal_r compares fitted curves for different round counts over a compute
grid: the argmin per grid point (ties to the smaller r) plus the grid points
where the winner changes. Scaling every curve's beta and eps_inf by a common
factor rescales predictions uniformly, so the selection is invariant to loss
units by construction.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "FitError",
    "FitResult",
    "fit_power_law",
    "OptimalRResult",
    "optimal_r",
    "write_fits_json",
    "write_breakpoints_csv",
]

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class FitError(ValueError):
    pass


@dataclass(frozen=True)
class FitResult:
    """Fitted eps(x) = beta * x**(-c) + eps_inf.

    residual is the sum of squared errors against the raw losses.
    fit_x_min/fit_x_max record the data range; predictions far outside it are
    extrapolations and optimal_r flags them.
    """

    beta: float
    c: float
    eps_inf: float
    residual: float
    n_points: int
    fit_x_min: float = 0.0
    fit_x_max: float = float("inf")

    def __post_init__(self):
        if self.beta <= 0 or self.c <= 0 or self.eps_inf < 0:
            raise FitError(
                f"invalid fit: beta={self.beta}, c={self.c}, eps_inf={self.eps_inf}"
            )

    def predict(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        return self.beta * x ** (-self.c) + self.eps_inf


def _ols_loglog(lx: np.ndarray, ly: np.ndarray):
    # Least squares of ly on lx; returns (slope, intercept).
    mx = lx.sum() / lx.size
    my = ly.sum() / ly.size
    vx = ((lx - mx) ** 2).sum()
    if vx <= 0:
        raise FitError("degenerate x values in log space")
    slope = ((lx - mx) * (ly - my)).sum() / vx
    return slope, my - slope * mx


def _sse_for_gap(gap: float, x: np.ndarray, eps: np.ndarray, min_eps: float):
    """Loss-space SSE of the best log-log line for eps_inf = min_eps - gap.

    The line (beta, c) comes from OLS on log(eps - eps_inf), but candidates
    are compared by SSE against the raw losses: log residuals blow up as
    eps_inf approaches the smallest loss even for the true floor, so they
    cannot arbitrate between floor candidates.

    Returns (sse, slope, intercept); inf when the implied c is not positive.
    """
    eps_inf = min_eps - gap
    y = eps - eps_inf
    if np.any(y <= 0):
        return float("inf"), 0.0, 0.0
    slope, intercept = _ols_loglog(np.log(x), np.log(y))
    if slope >= 0:  # c = -slope must be positive
        return float("inf"), slope, intercept
    pred = math.exp(intercept) * x**slope + eps_inf
    sse = float(((pred - eps) ** 2).sum())
    return sse, slope, intercept


def fit_power_law(
    points: Sequence[tuple[float, float]],
    n_grid: int = 256,
) -> FitResult:
    """Fit (x, loss) points to beta * x**(-c) + eps_inf.

    Needs >= 4 points with positive losses and distinct positive x. Point
    order does not matter (sorted internally); duplicate x values are the
    non-monotone-x error. All points weigh the same.
    """
    pts = [(float(x), float(y)) for x, y in points]
    if len(pts) < 4:
        raise FitError(f"need >= 4 points, got {len(pts)}")
    pts.sort(key=lambda p: p[0])
    x = np.array([p[0] for p in pts], dtype=np.float64)
    eps = np.array([p[1] for p in pts], dtype=np.float64)
    if np.any(x <= 0):
        raise FitError("x values must be positive")
    if np.any(np.diff(x) <= 0):
        raise FitError("non-monotone x: duplicate x values in fit points")
    if np.any(eps <= 0):
        raise FitError("losses must be positive")

    min_eps = float(eps.min())
    if n_grid < 8:
        raise ValueError(f"n_grid must be >= 8, got {n_grid}")
    # gap = min_eps - eps_inf; gap == min_eps is the eps_inf = 0 candidate,
    # included exactly so pure power laws recover a zero floor.
    gaps = np.geomspace(min_eps * 1e-9, min_eps, n_grid)
    gaps[-1] = min_eps

    best_i, best = -1, (float("inf"), 0.0, 0.0)
    for i, g in enumerate(gaps):
        r = _sse_for_gap(float(g), x, eps, min_eps)
        if r[0] < best[0]:
            best_i, best = i, r
    if best_i < 0:
        raise FitError(
            "no admissible floor candidate: losses do not decrease with x"
        )

    # Golden-section polish on log(gap) between the best cell's neighbors.
    # The winning grid cell stays a candidate, so the final residual can
    # never exceed any grid candidate's.
    candidates = [float(gaps[best_i])]
    lo = math.log(gaps[max(best_i - 1, 0)])
    hi = math.log(gaps[min(best_i + 1, n_grid - 1)])
    if hi > lo:
        a, b = lo, hi
        fa_x = b - _GOLDEN * (b - a)
        fb_x = a + _GOLDEN * (b - a)
        fa = _sse_for_gap(math.exp(fa_x), x, eps, min_eps)[0]
        fb = _sse_for_gap(math.exp(fb_x), x, eps, min_eps)[0]
        for _ in range(80):
            if fa <= fb:
                b, fb_x, fb = fb_x, fa_x, fa
                fa_x = b - _GOLDEN * (b - a)
                fa = _sse_for_gap(math.exp(fa_x), x, eps, min_eps)[0]
            else:
                a, fa_x, fa = fa_x, fb_x, fb
                fb_x = a + _GOLDEN * (b - a)
                fb = _sse_for_gap(math.exp(fb_x), x, eps, min_eps)[0]
        candidates += [math.exp(fa_x), math.exp(fb_x)]

    evaluated = [_sse_for_gap(g, x, eps, min_eps) for g in candidates]
    k = int(np.argmin([s[0] for s in evaluated]))
    gap_star = candidates[k]
    sse, slope, intercept = evaluated[k]

    return FitResult(
        beta=float(math.exp(intercept)),
        c=float(-slope),
        eps_inf=float(min_eps - gap_star),
        residual=float(sse),
        n_points=len(pts),
        fit_x_min=float(x[0]),
        fit_x_max=float(x[-1]),
    )


@dataclass
class OptimalRResult:
    """Per-grid-point winners plus the switch points.

    breakpoints lists (x, r) starting with the first grid point's winner and
    then every grid point where the winner changes. extrapolated flags grid
    points more than 10x beyond (or below a tenth of) the fitted data range.
    """

    grid: np.ndarray
    r_star: np.ndarray
    breakpoints: list[tuple[float, int]]
    extrapolated: np.ndarray

    @property
    def any_extrapolation(self) -> bool:
        return bool(self.extrapolated.any())


def optimal_r(fits: dict[int, FitResult], compute_grid: Sequence[float]) -> OptimalRResult:
    """Pick the loss-minimizing round count at every compute value; fits
    maps each round count r to its curve over a shared compute axis.

    Ties go to the smaller r. Breakpoint precision equals the grid spacing,
    so pass a dense grid where precision matters.
    """
    if not fits:
        raise ValueError("optimal_r needs at least one fitted curve")
    for r in fits:
        if not isinstance(r, int) or r < 1:
            raise ValueError(f"round keys must be positive integers, got {r!r}")
    grid = np.asarray(list(compute_grid), dtype=np.float64)
    if grid.size < 1 or np.any(grid <= 0):
        raise ValueError("compute grid must be non-empty and positive")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("compute grid must be strictly increasing")
    rounds = sorted(fits)
    preds = np.stack([fits[r].predict(grid) for r in rounds])
    # argmin over the first axis returns the first (smallest) r on ties.
    winner_idx = preds.argmin(axis=0)
    r_star = np.array([rounds[i] for i in winner_idx], dtype=np.int64)

    breakpoints = [(float(grid[0]), int(r_star[0]))]
    for i in range(1, grid.size):
        if r_star[i] != r_star[i - 1]:
            breakpoints.append((float(grid[i]), int(r_star[i])))

    x_lo = min(f.fit_x_min for f in fits.values())
    x_hi = max(f.fit_x_max for f in fits.values())
    extrapolated = (grid > 10.0 * x_hi) | (grid < x_lo / 10.0)
    return OptimalRResult(grid, r_star, breakpoints, extrapolated)


def write_fits_json(path, fits: dict[str, FitResult]):
    """{name: FitResult fields}; FitResult(**entry) reads an entry back."""
    obj = {name: asdict(f) for name, f in fits.items()}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, indent=2)


def write_breakpoints_csv(path, result: OptimalRResult):
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["x_break", "r"])
        for x, r in result.breakpoints:
            writer.writerow([repr(x), r])
