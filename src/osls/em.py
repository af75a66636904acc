"""EM estimation of the target ID label distribution and ID data ratio.

The open-set problem is reparameterized through (K+1)-class extended vectors:
the target extended distribution [rho_t*pi, 1-rho_t] is fitted against the
source extended distribution [rho_s*c, 1-rho_s] using the combined classifier
output [h*f, 1-h] per sample. With all-ones priors the updates are maximum
likelihood; Dirichlet/Beta priors (alpha >= 1) give the MAP variant.

All four fits (open-set MLE and MAP, and the closed-set MLLS and MAPLS of
``osls.baselines``) are one EM loop, ``fit``, over a column-scaled output
matrix ``W`` and a vector ``x`` of mixing weights on its columns, with
per-sample likelihoods ``d = W @ x``:

* open-set: ``W = fe / ce`` over the K+1 extended classes and
  ``x = [rho * pi, 1 - rho]``;
* closed-set: ``W = f / c`` over the K classes and ``x = pi``.

The E-step needs only the column sums of the responsibilities
``x_j W_ij / d_i``, which are ``x * (W.T @ (1 / d))``: two matrix-vector
products, with no N x K responsibility matrix. The responsibilities are
normalized over all K+1 classes (the OOD class included). The M-steps apply
the Dirichlet/Beta priors through ``alpha - 1``; all-ones priors make every
prior term exactly zero, so maximum likelihood is MAP with unit priors.

One EM map is the E-step followed by ``open_m_step`` or ``closed_m_step``.
With a tolerance ``tol > 0`` the fit stops once a map moves (pi, rho) by less
than ``tol``, and SQUAREM (Varadhan & Roland 2008, Scand. J. Statist.
35:335-353) extrapolates along every two maps, falling back to the plain
iterate whenever the extrapolation would leave the open simplex or raise the
objective. ``tol = 0`` runs exactly ``max_iters`` plain EM updates.

``nll_grid_argmin`` is the brute-force check of the K=2 fit: the lowest NLL
on a uniform (pi_1, rho_t) grid. It bisects each row's convex NLL in rho_t
and scores exactly only the rows that a certified lower bound, and the
quasiconvexity of the row minimum in pi_1, leave able to hold the argmin, so
it returns the cell and the bits a scan of every row returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    DegenerateSample,
    ProbabilityVector,
    RecordSet,
    SourceLabelModel,
    TargetLabelModel,
    ValidationError,
    extend_distribution,
    real_in,
    reals_in,
    whole_number,
)

LIK_FLOOR = 1e-300

# Cell samples (grid cell times target row) the K=2 grid oracle scores at once.
# Its two cell buffers hold this many float64 each (256 KiB) and its block of u
# rows half that, so all three fit in a 2 MiB L2 cache.
_GRID_CELLS_PER_BLOCK = 1 << 15

@dataclass(frozen=True, eq=False)
class EmConfig:
    """EM settings: map budget, stopping tolerance and prior strengths.

    ``max_iters`` caps the number of EM map evaluations. ``tol`` is the
    L-infinity move of (pi, rho_t) under one EM map below which the fit stops
    as converged; any ``tol > 0`` also turns on SQUAREM extrapolation. ``tol =
    0.0`` runs exactly ``max_iters`` plain EM updates. All-ones priors reduce
    the MAP updates to plain maximum likelihood.
    """

    max_iters: int = 100
    tol: float = 1e-10
    alpha_in: Optional[np.ndarray] = None
    alpha_out: Tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        object.__setattr__(self, "max_iters", whole_number("max_iters", self.max_iters, 1))
        object.__setattr__(self, "tol", real_in("tol", self.tol, 0))
        if self.alpha_in is not None:
            arr = np.array(reals_in("alpha_in", self.alpha_in, 1))  # not the caller's array
            if arr.ndim != 1:
                raise ValidationError(f"alpha_in must be a list of numbers; got {self.alpha_in}")
            arr.flags.writeable = False
            object.__setattr__(self, "alpha_in", arr)
        pair = reals_in("alpha_out", self.alpha_out, 1)
        if pair.shape != (2,):
            raise ValidationError(f"alpha_out must be a pair of numbers; got {self.alpha_out}")
        object.__setattr__(self, "alpha_out", tuple(pair.tolist()))

    def resolved_alpha_in(self, k: int) -> np.ndarray:
        if self.alpha_in is None:
            return np.ones(k)
        if self.alpha_in.size != k:
            raise ValidationError(f"alpha_in has {self.alpha_in.size} entries, expected {k}")
        return np.asarray(self.alpha_in, dtype=float)

    @property
    def is_mle(self) -> bool:
        """True when every prior parameter equals 1 (prior terms vanish)."""
        a1, a2 = self.alpha_out
        if a1 != 1.0 or a2 != 1.0:
            return False
        return self.alpha_in is None or bool(np.all(self.alpha_in == 1.0))


@dataclass(frozen=True, eq=False)
class EmTrace:
    """Fit result: objective trace and final iterate.

    ``rho_t_final`` is None for a closed-set fit. ``nll_per_iter[0]`` is the
    objective at the initial iterate and each later entry follows one accepted
    iterate, so ``iterations_run == len(nll_per_iter) - 1``; for MAP runs the
    objective is the negative log-posterior (prior normalizing constants
    dropped). ``map_evaluations``
    counts EM maps, including stabilising maps after rejected SQUAREM
    extrapolations, and never exceeds ``EmConfig.max_iters``.
    ``pi_update_frozen`` flags iterations where all responsibility mass fell
    on the OOD class and the pi update was skipped.
    """

    nll_per_iter: np.ndarray
    pi_final: ProbabilityVector
    rho_t_final: Optional[float]
    iterations_run: int
    converged: bool
    pi_update_frozen: bool
    map_evaluations: int


def mixing(pi: np.ndarray, rho) -> np.ndarray:
    """Column weights x: ``[rho * pi, 1 - rho]`` open-set, ``pi`` when rho is None."""
    return pi if rho is None else np.append(rho * pi, 1.0 - rho)


def e_step(w: np.ndarray, x: np.ndarray, d: np.ndarray, out=None) -> np.ndarray:
    """Column sums of the responsibilities ``x_j W_ij / d_i``, given ``d = W @ x > 0``.

    ``out``, an array shaped as ``d``, receives ``1 / d`` when given.
    """
    return x * (w.T @ np.divide(1.0, d, out=out))


def nll(d: np.ndarray, axis=None, out=None):
    """Negative log likelihood from per-sample likelihoods along ``axis``, floored at 1e-300.

    ``out``, an array shaped as ``d``, receives the logs when given.
    """
    if not d.min(initial=math.inf) > LIK_FLOOR:
        d = np.maximum(d, LIK_FLOOR, out=out)
    return -np.sum(np.log(d, out=out), axis=axis)


def objective(d, pi, rho, am1, bm1, out=None) -> float:
    """NLL minus the log prior density (normalizing constants dropped).

    ``am1`` is ``alpha - 1`` per class and ``bm1`` the pair ``alpha_out - 1``
    for rho and 1 - rho, which a closed-set fit (rho None) leaves out. ``out``
    is as for ``nll``.
    """
    val = nll(d, out=out) - float(np.sum(am1 * np.log(np.maximum(pi, LIK_FLOOR))))
    if rho is not None:
        val -= bm1[0] * np.log(max(rho, LIK_FLOOR))
        val -= bm1[1] * np.log(max(1.0 - rho, LIK_FLOOR))
    return val


def open_m_step(s: np.ndarray, n: float, am1: np.ndarray, bm1, am1_sum=None):
    """Open-set M-step from the K+1 E-step column sums; returns (pi, rho).

    pi is None when its update is undefined (all mass on the OOD class under
    maximum likelihood), in which case the previous pi should be kept. The ID
    mass ``n - s[K]`` is clamped at 0, as rounding can leave it a few ulp below.
    ``am1_sum`` is ``float(np.sum(am1))``, computed here when not given.
    """
    k = s.size - 1
    n_in = max(n - s[k], 0.0)
    mass = s[:k] + am1
    denom_pi = n_in + (float(np.sum(am1)) if am1_sum is None else am1_sum)
    pi = None if denom_pi == 0.0 or not mass.any() else mass / denom_pi
    rho = (n_in + bm1[0]) / (n + bm1[0] + bm1[1])
    return pi, float(rho)


def closed_m_step(s: np.ndarray, n: float, am1: np.ndarray, am1_sum=None) -> np.ndarray:
    """Closed-set M-step from the K E-step column sums; ``am1_sum`` as for ``open_m_step``."""
    return (s + am1) / (n + (float(np.sum(am1)) if am1_sum is None else am1_sum))


def _em_map(w, n, am1, bm1, pi, rho, x, d, am1_sum, scratch):
    """One EM map from (pi, rho), given x = mixing(pi, rho) and d = W @ x > 0.

    ``scratch`` is an N-vector the E-step may overwrite. Returns (pi, rho,
    change, frozen): the updated pair, its L-infinity move and whether the pi
    update was skipped because it was undefined.
    """
    s = e_step(w, x, d, scratch)
    if rho is None:
        pi_new = closed_m_step(s, n, am1, am1_sum)
        return pi_new, None, float(np.max(np.abs(pi_new - pi))), False
    pi_new, rho_new = open_m_step(s, n, am1, bm1, am1_sum)
    frozen = pi_new is None
    if frozen:
        pi_new = pi
    change = max(float(np.max(np.abs(pi_new - pi))), abs(rho_new - rho))
    return pi_new, rho_new, change, frozen


def _extrapolate(x0, x1, x2, open_set: bool):
    """SQUAREM step from three successive mixing vectors; (pi, rho) or None.

    ``x0 - 2 a r + a^2 v`` with ``r = x1 - x0``, ``v = x2 - 2 x1 + x0`` and
    step length ``a = min(-|r| / |v|, -1)``; ``a = -1`` gives back ``x2``.
    None when the point leaves the open simplex or ``v`` vanishes.
    """
    r = x1 - x0
    v = x2 - x1 - r
    norm_v = float(np.sqrt(v @ v))
    if norm_v == 0.0:
        return None
    a = min(-float(np.sqrt(r @ r)) / norm_v, -1.0)
    x = x0 - 2.0 * a * r + (a * a) * v
    if not np.all(x > 0.0):
        return None
    if not open_set:
        return x / x.sum(), None
    x_in = float(x[:-1].sum())
    return x[:-1] / x_in, x_in / (x_in + float(x[-1]))


def fit(w: np.ndarray, pi0, rho0, config: EmConfig) -> EmTrace:
    """EM for (pi, rho) on W = fe / ce, or for pi alone on W = f / c when rho0 is None.

    ``config`` gives the K Dirichlet parameters on pi, the Beta pair on
    (rho, 1 - rho), which a closed-set fit ignores, and the stopping rule: at
    most ``config.max_iters`` EM maps are evaluated.

    With ``tol = 0`` every map is a plain EM update and all ``max_iters`` run.
    With ``tol > 0`` the fit stops once one map moves (pi, rho) by less than
    ``tol`` in L-infinity, and every two accepted maps are followed by a
    SQUAREM extrapolation (Varadhan & Roland 2008) on the mixing weights x and
    one stabilising map from the extrapolated point. The stabilised point is
    kept only if the extrapolation stayed in the open simplex with every
    ``d > 0``, its map did not freeze pi, and its objective is no higher than
    the last accepted one; otherwise the fit goes on from the plain iterate,
    so the objective never rises at an extrapolation.

    Raises DegenerateSample, naming the first sample, when an iterate gives a
    sample zero likelihood.
    """
    max_iters, tol = config.max_iters, config.tol
    n = float(w.shape[0])
    pi = np.array(pi0, dtype=np.float64)
    rho = None if rho0 is None else float(rho0)
    am1 = config.resolved_alpha_in(pi.size) - 1.0
    am1_sum = float(np.sum(am1))
    bm1 = (config.alpha_out[0] - 1.0, config.alpha_out[1] - 1.0)
    scratch = np.empty(w.shape[0])  # 1 / d and log d, one after the other
    frozen = False
    x = mixing(pi, rho)
    d = w @ x
    obj = [objective(d, pi, rho, am1, bm1, scratch)]
    maps = 0
    cycle = [x]  # mixing vectors since the last extrapolation or restart
    converged = False

    while maps < max_iters:
        if not d.min(initial=math.inf) > 0.0:
            bad = d <= 0.0
            if bad.any():
                raise DegenerateSample(int(np.argmax(bad)))
        pi, rho, change, froze = _em_map(w, n, am1, bm1, pi, rho, x, d, am1_sum, scratch)
        maps += 1
        frozen |= froze
        x = mixing(pi, rho)
        d = w @ x
        obj.append(objective(d, pi, rho, am1, bm1, scratch))
        if tol > 0.0 and change < tol:
            converged = True
            break
        if tol == 0.0:
            continue
        cycle = [x] if froze else cycle + [x]
        if len(cycle) < 3 or maps == max_iters:
            continue
        trial = _extrapolate(*cycle, rho is not None)
        cycle = [x]
        if trial is None:
            continue
        x_ex = mixing(*trial)
        d_ex = w @ x_ex
        if d_ex.min(initial=math.inf) <= 0.0:
            continue
        pi_y, rho_y, change, froze = _em_map(w, n, am1, bm1, *trial, x_ex, d_ex, am1_sum,
                                             scratch)
        maps += 1
        if froze:
            continue
        x_y = mixing(pi_y, rho_y)
        d_y = w @ x_y
        obj_y = objective(d_y, pi_y, rho_y, am1, bm1, scratch)
        if not obj_y <= obj[-1]:
            continue
        pi, rho, x, d = pi_y, rho_y, x_y, d_y
        obj.append(obj_y)
        cycle = [x]
        if change < tol:
            converged = True
            break
    trace = np.array(obj)
    trace.flags.writeable = False
    return EmTrace(
        nll_per_iter=trace,
        pi_final=ProbabilityVector(pi),
        rho_t_final=rho,
        iterations_run=len(obj) - 1,
        converged=converged,
        pi_update_frozen=frozen,
        map_evaluations=maps,
    )


def flush_subnormals(w: np.ndarray) -> np.ndarray:
    """Set the entries of a built W below the smallest normal double to 0, in place.

    Both W builders end here: ``_scaled_outputs`` for the open-set fits and
    ``baselines._closed_set_fit`` for the closed-set ones. They hand over W in
    column-major order, which makes the two E-step matrix-vector products up to
    1.9 times as fast, and never slower (N 2e3 to 1e5, K+1 3 to 101, numpy
    2.4.6 on 2 cores). Products with subnormal entries take a slow path on x86,
    up to 4 times slower at K=100. W >= 0, so every addend of ``W @ x`` and of
    the E-step's ``W.T @ (1 / d)`` is non-negative, and an addend dropped here
    is below 2.2e-308 (times ``1 / d_i`` in the E-step): it can move a sum only
    when that sum is itself near the bottom of the double range.
    """
    tiny = np.finfo(w.dtype).tiny
    for j in np.flatnonzero(w.min(axis=0, initial=math.inf) < tiny):
        col = w[:, j]  # one column mask at a time, N bytes each
        np.copyto(col, 0.0, where=col < tiny)
    return w


def _scaled_outputs(source: SourceLabelModel, target: RecordSet) -> np.ndarray:
    """The EM fit's W = fe / ce: combined outputs scaled by the source extended prior.

    Subnormal entries are flushed after the division, which lifts some of them
    into the normal range.
    """
    if target.k != source.k:
        raise ValidationError(f"target has K={target.k} but source has K={source.k}")
    w = target.extended_f(order="F")
    w /= source.extended().entries
    return flush_subnormals(w)


def osls_nll(
    pi: Union[ProbabilityVector, Sequence[float], np.ndarray],
    rho_t: float,
    source: SourceLabelModel,
    target: RecordSet,
) -> float:
    """Negative log likelihood of (pi, rho_t), constant data term dropped.

    Inner sums are floored at 1e-300 before the log so underflowed samples
    contribute a large but finite penalty.
    """
    w = _scaled_outputs(source, target)
    return float(nll(w @ extend_distribution(pi, rho_t).entries))


def run_em(
    source: SourceLabelModel,
    target: RecordSet,
    config: Optional[EmConfig] = None,
    init: Optional[TargetLabelModel] = None,
) -> EmTrace:
    """Fit (pi, rho_t) by EM, starting from pi = c and rho_t = rho_s by default."""
    config = config or EmConfig()
    w = _scaled_outputs(source, target)
    if init is None:
        pi0 = source.c.entries
        rho0 = source.rho_s
    else:
        pi0 = reals_in("initial pi", init.pi.entries, 0, strict=True)
        if pi0.size != source.k:
            raise ValidationError(f"initial pi has {pi0.size} entries, expected {source.k}")
        rho0 = real_in("initial rho_t", init.rho_t, 0, 1, strict=True)
    return fit(w, pi0, rho0, config)


def closed_form_rho_t(target: RecordSet) -> float:
    """Mean of h over the target set; valid for an exactly binary scorer."""
    binary = (target.h == 0.0) | (target.h == 1.0)
    if not np.all(binary):
        bad = int(np.argmin(binary))
        raise ValidationError(
            f"closed-form rho_t needs h in {{0, 1}}; sample {bad} has h={target.h[bad]}"
        )
    return float(np.mean(target.h))


# The K=2 grid oracle's pruning (see ``nll_grid_argmin``): the stride of the
# rows whose bounds pick the start row, the rows the outward walk bounds at once
# in each direction, and the Newton steps that place a row's tangent, which
# stop at a slope of _GRID_SLOPE_TOL.
_GRID_COARSE_STRIDE = 32
_GRID_WALK_ROWS = 8
_GRID_NEWTON_STEPS = 40
_GRID_SLOPE_TOL = 1e-9


class _K2Grid:
    """Buffers and row scorers of ``nll_grid_argmin`` on W's columns a, b and dd."""

    def __init__(self, w: np.ndarray, n_side: int):
        self.a, self.b, self.dd = w[:, 0], w[:, 1], w[:, 2]
        self.n = n = w.shape[0]
        self.n_side = n_side
        self.grid = np.linspace(0.0, 1.0, n_side)
        self.rows_per_block = max(1, _GRID_CELLS_PER_BLOCK // (2 * max(n, 1)))
        self.x_buf = np.empty(2 * self.rows_per_block * n)
        self.y_buf = np.empty_like(self.x_buf)
        self.u_buf = np.empty(self.rows_per_block * n)
        self.log_scale = math.nan  # the margin's sum_n M_n + N, set by pruned_argmin

    def _u(self, rows) -> np.ndarray:
        """u = p1 * a + (1 - p1) * b of grid rows ``rows``, at most a block, in u_buf."""
        p1 = self.grid[rows, None]
        u = self.u_buf[: p1.size * self.n].reshape(p1.size, self.n)
        np.multiply(p1, self.a, out=u)
        u += np.multiply(1.0 - p1, self.b, out=self.y_buf[: u.size].reshape(u.shape))
        return u

    def _cell_nll(self, u: np.ndarray, j: np.ndarray) -> np.ndarray:
        """NLL at grid columns j (shape (rows, m)) of the rows whose u is given.

        Each cell's N terms are one contiguous row of x, so its sum is the
        same pairwise reduction as in a full scan of the surface.
        """
        shape = j.shape + (self.n,)
        x = self.x_buf[: math.prod(shape)].reshape(shape)
        y = self.y_buf[: x.size].reshape(shape)
        t = self.grid[j][:, :, None]
        np.multiply(t, u[:, None, :], out=x)
        np.multiply(1.0 - t, self.dd, out=y)
        np.add(x, y, out=x)
        return nll(x, axis=2, out=x)

    def scan(self, rows: np.ndarray, best=(math.inf, 0, 0)):
        """(nll, i, j) of the lowest-index argmin over ascending ``rows``, or ``best`` if lower.

        Each row's j is the lowest column whose NLL is no higher than the next
        one's, found by bisection on every row of a block at once.
        """
        last = self.n_side - 1
        for start in range(0, rows.size, self.rows_per_block):
            block = rows[start : start + self.rows_per_block]
            u = self._u(block)
            # A finished row (lo == hi) is scored again but keeps its bracket.
            lo = np.zeros(block.size, dtype=np.int64)
            hi = np.full(block.size, last, dtype=np.int64)
            while np.any(open_ := lo < hi):
                mid = (lo + hi) // 2
                vals = self._cell_nll(u, np.stack([mid, np.minimum(mid + 1, last)], axis=1))
                rising = (vals[:, 0] <= vals[:, 1]) | ~open_
                hi = np.where(rising, mid, hi)
                lo = np.where(rising, lo, mid + 1)
            vals = self._cell_nll(u, lo[:, None])[:, 0]
            k = int(np.argmin(vals))
            best = min(best, (float(vals[k]), int(block[k]), int(lo[k])))
        return best

    def bounds(self, rows: np.ndarray, t0: float = 0.5) -> np.ndarray:
        """Rows (lower, phi, margin, t*) over ``rows``; see ``_block_bounds``."""
        out = np.empty((4, rows.size))
        for start in range(0, rows.size, self.rows_per_block):
            block = rows[start : start + self.rows_per_block]
            out[:, start : start + block.size] = self._block_bounds(block, t0)
        return out

    def _block_bounds(self, rows: np.ndarray, t0: float):
        """Per row: a lower bound on its interior cells, phi(t*), the rounding margin and t*.

        phi(t) = -sum log D is convex, so its tangent at t* bounds it from
        below; the bound's minimum over I = [t_1, t_{m-2}] is at an end. t*
        comes from Newton steps on phi' from ``t0``, kept inside a bracket of
        phi's minimizer in I that each step's sign of phi' narrows, with a
        bisection of the bracket where a step would leave it. A row stops once
        |phi'(t*)|, which caps its bound's distance below phi(t*), is at most
        ``_GRID_SLOPE_TOL``, or t* is an end of I that phi' points past.
        """
        u = self._u(rows)
        v = np.subtract(self.dd, u, out=self.y_buf[: u.size].reshape(u.shape))
        d = self.x_buf[: u.size].reshape(u.shape)
        r = self.x_buf[u.size : 2 * u.size].reshape(u.shape)
        t_lo, t_hi = self.grid[1], self.grid[-2]
        lo, hi = np.full(rows.size, t_lo), np.full(rows.size, t_hi)
        t = np.full(rows.size, t0)
        for step in range(_GRID_NEWTON_STEPS + 1):
            np.multiply(u, t[:, None], out=d)
            d += np.multiply(self.dd, (1.0 - t)[:, None], out=r)
            np.divide(v, d, out=r)  # phi' = sum r, phi'' = sum r^2
            slope = r.sum(axis=1)
            done = ((np.abs(slope) <= _GRID_SLOPE_TOL) | ((t == t_lo) & (slope >= 0.0))
                    | ((t == t_hi) & (slope <= 0.0)))
            if step == _GRID_NEWTON_STEPS or done.all():
                break
            curv = np.square(r, out=r).sum(axis=1)
            lo = np.where(slope < 0.0, t, lo)
            hi = np.where(slope > 0.0, t, hi)
            newton = t - np.divide(slope, curv, out=np.zeros_like(slope), where=curv > 0.0)
            newton = np.clip(newton, t_lo, t_hi)
            inside = ((lo < newton) & (newton < hi) | (newton == t_lo) & (lo == t_lo)
                      | (newton == t_hi) & (hi == t_hi))
            t = np.where(done, t, np.where(inside, newton, 0.5 * (lo + hi)))
        spread = np.abs(r, out=r).sum(axis=1)
        phi = -np.log(d, out=d).sum(axis=1)
        lower = phi + np.minimum(slope * (t_lo - t), slope * (t_hi - t))
        margin = 4.0 * (self.n + 8) * np.finfo(float).eps * (self.log_scale + spread)
        return lower, phi, margin, t

    def pruned_argmin(self):
        """``scan`` over every row, from the rows that can hold its result.

        None where the pruning's argument does not hold; see ``nll_grid_argmin``.
        """
        m, n, a, b, dd = self.n_side, self.n, self.a, self.b, self.dd
        if m < 4 or n == 0:
            return None
        # Per-sample ends of D over the interior columns, in buffer scratch.
        d_lo = np.maximum(np.minimum(a, b, out=self.x_buf[:n]), dd, out=self.x_buf[:n])
        d_lo *= 0.5 * self.grid[1]
        if not d_lo.min() > LIK_FLOOR:
            return None
        d_hi = np.maximum(np.maximum(a, b, out=self.y_buf[:n]), dd, out=self.y_buf[:n])
        np.abs(np.log(d_lo, out=d_lo), out=d_lo)
        np.abs(np.log(d_hi, out=d_hi), out=d_hi)
        self.log_scale = n + float(np.maximum(d_lo, d_hi, out=d_lo).sum())
        corner = float(nll(dd, out=self.x_buf[:n]))  # every row's t = 0 cell
        end = np.empty(m)  # every row's t = 1 cell
        for start in range(0, m, self.rows_per_block):
            u = self._u(slice(start, start + self.rows_per_block))
            end[start : start + len(u)] = nll(u, axis=1, out=self.x_buf[: u.size].reshape(u.shape))

        coarse = np.arange(0, m + _GRID_COARSE_STRIDE - 1, _GRID_COARSE_STRIDE).clip(max=m - 1)
        lower, _, _, t_star = self.bounds(coarse)
        s = int(np.argmin(lower))
        s, t0 = int(coarse[s]), float(t_star[s])
        ends = [min(s + 1, m - 1), max(s - 1, 0)]  # the walk's right and left edge rows
        window = np.arange(ends[1], ends[0] + 1)
        _, phi, _, t_star = self.bounds(window, t0)
        starts = [float(t_star[-1]), float(t_star[0])]  # t* at each edge row
        witness = float(np.min(phi, initial=math.inf, where=phi == phi))
        scanned = np.zeros(m, dtype=bool)
        scanned[0] = True
        scanned[window] = True
        best = self.scan(np.flatnonzero(scanned))
        walking = [ends[0] < m - 1, ends[1] > 0]
        while any(walking):
            pending = np.zeros(m, dtype=bool)
            for side, step in enumerate((1, -1)):
                if not walking[side]:
                    continue
                rows = np.arange(ends[side] + step, ends[side] + step * (_GRID_WALK_ROWS + 1), step)
                rows = rows[(rows >= 0) & (rows < m)]
                lower, phi, margin, t_star = self.bounds(rows, starts[side])
                for k, row in enumerate(rows):
                    if lower[k] > max(best[0], witness) + margin[k]:
                        walking[side] = False
                        break
                    pending[row] = not lower[k] > best[0] + margin[k]
                    ends[side], starts[side] = int(row), float(t_star[k])
                    if phi[k] < witness:
                        witness = float(phi[k])
                else:
                    walking[side] = 0 < ends[side] < m - 1
            best = self.scan(np.flatnonzero(pending), best)
            scanned |= pending
        best = self.scan(np.flatnonzero((end <= best[0]) & ~scanned), best)
        if corner < best[0] or (corner == best[0] and best[1] > 0):
            return None
        return best


def nll_grid_argmin(
    source: SourceLabelModel,
    target: RecordSet,
    resolution: float = 0.001,
) -> Tuple[float, float, float]:
    """NLL minimization over a uniform (pi_1, rho_t) grid, K = 2 only.

    Returns (pi_1, rho_t, nll) at the grid argmin, the lowest-index one on
    ties; this is the grid route used to cross-check the EM optimizer.
    ``resolution`` is the grid step and must be 1/n for a whole n >= 1.

    **Exact scorer.** For a fixed pi_1 (a row) the NLL is -sum log of
    ``D = t * u + (1 - t) * dd``, affine in t = rho_t with ``u = pi_1 * a +
    (1 - pi_1) * b``, hence convex in t, so a row's minimum is found by
    bisection on the sign of the forward difference: the lowest j with
    nll(j) <= nll(j + 1). Cells are evaluated with the same arithmetic as a
    full scan of the surface, so the result is the lowest-index argmin of the
    flattened surface. Rows are scored in blocks of at most
    ``_GRID_CELLS_PER_BLOCK`` cell samples (one row if N is larger). A block's
    cells are scored in place in two buffers of that many float64 and its u
    rows kept in a third of half that, all made once per call; every other
    array is one value per row or per sample, so beyond W and the grid's
    n_side points a call's memory is set by the budget, not by the resolution.

    **Pruning.** Only rows that can hold the argmin reach the exact scorer;
    the rest are ruled out, so the result is the one a scan of every row
    gives, bit for bit:

    * Every row's t = 0 cell is ``nll(dd)``, the same bits in each row, so
      only row 0's can be the lowest-index argmin: row 0 is always scored.
      The t = 1 cell, ``nll(u)``, is scored for every row, and a row whose
      t = 1 cell is no higher than the best value found is scored too.
    * On the interior columns I = [t_1, t_{m-2}] (m = n_side) a row's NLL,
      phi(t), is convex, so for any t* in I its tangent
      ``phi(t*) + min(phi'(t*) (t_1 - t*), phi'(t*) (t_{m-2} - t*))`` bounds
      every interior cell of the row from below. Safeguarded Newton steps
      pick t*; they tighten the bound but it holds for any t*. A row whose
      bound exceeds the best value found plus a rounding margin has no
      interior cell at or below that value.
    * g(pi_1) = min over I of phi is quasiconvex in pi_1: -sum log(W x) is
      convex in the mixing weights x = (t pi_1, t (1 - pi_1), 1 - t), and
      the linear-fractional map x -> x_1 / (x_1 + x_2) sends its sublevel
      sets, cut to the slab t in I, to intervals. The scan starts at the row
      with the lowest bound among every 32nd row, scores it and its two
      neighbours, and walks outward in both directions, scoring a walked row
      only if its bound is at or below the best value plus the margin. A row
      whose bound exceeds by more than the margin both the best value and
      phi(t*) of a row walked before it has g above that row's; by
      quasiconvexity every row beyond it is at least as high, and the walk
      stops there.
    * The margin is ``4 (N + 8) eps (sum_n M_n + N + sum_n |r_n|)``, with
      M_n >= |log D_n| on I and r_n = (dd_n - u_n) / D_n(t*) the terms of
      phi'(t*). It covers the rounding of u, of the computed bound, of
      phi(t*) and of any computed cell, whose N terms sum pairwise.
      ``t_1 max(min(a_n, b_n), dd_n) <= D_n <= max(a_n, b_n, dd_n)`` on I
      gives M_n.

    Every row is scored when the argument does not hold: grids with fewer
    than two interior columns (n_side < 4), targets where that lower end
    t_1 max(min(a, b), dd), halved, is at or below the 1e-300 floor for some
    sample (an interior cell could be floored), and the rounding case where
    row 0's t = 0 cell is at or below the best value without being row 0's
    scored minimum.
    """
    if target.k != 2:
        raise ValidationError("grid search is implemented for K = 2 only")
    resolution = real_in("resolution", resolution, -math.inf)
    steps = 1.0 / resolution if 0.0 < resolution <= 1.0 else math.inf
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9 * steps:
        raise ValidationError(f"resolution must be 1/n for a whole number n >= 1, got {resolution}")
    grid = _K2Grid(_scaled_outputs(source, target), int(round(steps)) + 1)
    value, i, j = grid.pruned_argmin() or grid.scan(np.arange(grid.n_side))
    step = 1.0 / (grid.n_side - 1)
    return i * step, j * step, value
