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

The E-step (``e_step``) forms ``u = W.T @ (1 / d)``; the column sums of the
responsibilities ``x_j W_ij / d_i`` are ``x * u``: two matrix-vector products,
with no N x K responsibility matrix. The responsibilities are normalized over
all K+1 classes (the OOD class included). The M-steps apply the Dirichlet/Beta
priors in closed form through ``alpha - 1``. They, the objective, the
certificate and the Newton steps read the priors from one object, ``Prior``,
which states them in (pi, rho) and in x. All-ones priors make every prior
term exactly zero, so maximum likelihood is MAP with unit priors.

One EM map is the E-step followed by ``open_m_step`` or ``closed_m_step``.
``tol = 0`` runs exactly ``max_iters`` plain EM updates. With ``tol > 0``:

* **Certificate and stop.** ``certificate`` is the Frank-Wolfe gap of the
  objective per target row (Jaggi 2013, ICML), read from u at no extra cost.
  Where the objective is convex in x the gap is taken over x and bounds the
  excess objective per row; for maximum likelihood it is ``max_j u_j / n -
  1``, 0 exactly at the optimum. The open-set prior whose tail is positive
  makes the objective nonconvex in x, with a gradient in x that grows as 1 /
  rho; that fit's gap is taken over (pi, rho), where it is a stationarity
  residual that stays finite at rho = 0. The fit stops once the certificate
  is at or below ``tol``: ``converged`` means exactly that.
* **SQUAREM.** Every two accepted maps are followed by a SQUAREM
  extrapolation (Varadhan & Roland 2008, Scand. J. Statist. 35:335-353) and
  a stabilising map, kept only if it is better than the plain iterate.
* **Better** (``_better``). A point is better than another when every ``d >
  0`` and its objective is lower by more than the rounding of a sum of N logs
  (``_lower``). Nearer than that the objective cannot tell the two apart, and
  the certificate decides: the new point is better when its certificate is
  below the last one the fit computed. So no accepted iterate raises the
  objective by more than that rounding.
* **Newton hand-over.** EM converges sublinearly where the optimum sits on
  the simplex boundary. Once the certificate is at or below
  ``_NEWTON_START`` (1e-2), and Newton steps would reach ``tol`` for less
  work than SQUAREM at its observed rate (``_newton_pays``: a step forms the
  Hessian ``W_S' diag(1 / d^2) W_S`` on the support S of x, which costs
  about ``2 + |S|^2 / (4 (K + 1))`` maps), the fit takes damped Newton steps
  on S under ``sum(x) = 1``, as in mixSQP (Kim, Carbonetto, Stephens &
  Anitescu 2020, JCGS 29:261-273). A small QP over the simplex gives each
  step. Its active-set solver, ``osls.core.simplex_qp``, is the one the
  multiclass stationary estimator uses: coordinates that reach 0 are set to
  exactly 0, all at once, and a zero coordinate whose gradient breaks the KKT
  conditions comes back in. The line search halves the step until the point
  is better. Where the open-set prior makes the objective nonconvex in x
  (``Prior.convex``), the fit takes a step only where the reduced Hessian's
  Cholesky factorization succeeds. A declined step hands back to SQUAREM.
* **Budget.** ``max_iters`` caps EM maps plus Newton steps.
  ``map_evaluations`` counts maps (stabilising maps included) and
  ``newton_steps`` Newton steps (declined ones included); ``iterations_run``
  counts accepted iterates, each of which adds one objective to
  ``nll_per_iter``.

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
    BLOCK_CELLS,
    DegenerateSample,
    ProbabilityVector,
    RecordSet,
    SourceLabelModel,
    TargetLabelModel,
    ValidationError,
    extend_distribution,
    mixing,
    real_in,
    reals_in,
    row_blocks,
    simplex_qp,
    whole_number,
)

LIK_FLOOR = 1e-300

# Cell samples (grid cell times target row) the K=2 grid oracle scores at once.
# Its two cell buffers hold this many float64 each (256 KiB) and its block of u
# rows half that, so all three fit in a 2 MiB L2 cache.
_GRID_CELLS_PER_BLOCK = 1 << 15

@dataclass(frozen=True, eq=False)
class EmConfig:
    """EM settings: step budget, stopping tolerance and prior strengths.

    ``max_iters`` caps the EM maps plus Newton steps a fit takes. With ``tol >
    0`` the fit stops as converged once its certificate is at or below
    ``tol`` (see ``certificate``), and SQUAREM extrapolation and Newton steps
    are on. ``tol = 0.0`` runs exactly ``max_iters`` plain EM updates. All-ones
    priors reduce the MAP updates to plain maximum likelihood.
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
    iterate, an EM map or a Newton step, so ``iterations_run ==
    len(nll_per_iter) - 1``; for MAP runs the objective is the negative
    log-posterior (prior normalizing constants dropped). ``map_evaluations``
    counts EM maps, including stabilising maps after rejected SQUAREM
    extrapolations, and ``newton_steps`` Newton steps, including declined
    ones; together they never exceed ``EmConfig.max_iters``. ``certificate``
    is ``certificate`` at the final iterate (inf when a sample has zero
    likelihood there), and ``converged`` means it is at or below ``tol``.
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
    newton_steps: int
    certificate: float


def e_step(w: np.ndarray, d: np.ndarray, out=None) -> np.ndarray:
    """``u = W.T @ (1 / d)``, given ``d = W @ x > 0``.

    ``x * u`` are the column sums of the responsibilities ``x_j W_ij / d_i``,
    and ``-u`` is the NLL's gradient in x. ``out``, an array shaped as ``d``,
    receives ``1 / d`` when given.
    """
    return w.T @ np.divide(1.0, d, out=out)


def nll(d: np.ndarray, axis=None, out=None):
    """Negative log likelihood from per-sample likelihoods along ``axis``, floored at 1e-300.

    ``out``, an array shaped as ``d``, receives the logs when given.
    """
    if not d.min(initial=math.inf) > LIK_FLOOR:
        d = np.maximum(d, LIK_FLOOR, out=out)
    return -np.sum(np.log(d, out=out), axis=axis)


class Prior:
    """A fit's negative log prior P, normalizing constants dropped.

    ``am1`` is ``alpha - 1`` per class and ``bm1`` the pair ``alpha_out - 1``
    for rho and 1 - rho, None closed-set. In (pi, rho), ``P = -sum_j am1_j log
    pi_j - bm1[0] log rho - bm1[1] log(1 - rho)``, the last two terms open-set
    only. In ``x = [rho pi, 1 - rho]``, ``P = -sum_j weights_j log x_j + tail
    log(1 - x_K)``, with weights ``am1`` (and ``bm1[1]``) and tail ``sum(am1) -
    bm1[0]`` (0 closed-set). A positive tail makes P nonconvex in x, with a
    gradient in x that grows as 1 / rho: at rho = 0, P depends on pi, not on x alone.
    ``am1_sum`` is ``sum(am1)``, which the tail and the M-steps read.
    """

    def __init__(self, am1: np.ndarray, bm1=None):
        self.am1, self.bm1, self.am1_sum = am1, bm1, float(np.sum(am1))
        self.weights = np.append(am1, [] if bm1 is None else [bm1[1]])
        self.tail = 0.0 if bm1 is None else self.am1_sum - bm1[0]
        self.weighted = self.weights > 0.0
        # -w log x_j is convex for w >= 0, and t log(1 - x_K) for t <= 0 only.
        self.convex = self.tail <= 0.0

    def value(self, pi: np.ndarray, rho) -> float:
        """P at (pi, rho), each log's argument floored at 1e-300; rho None closed-set."""
        val = -float(np.sum(self.am1 * np.log(np.maximum(pi, LIK_FLOOR))))
        if rho is not None:
            val -= self.bm1[0] * math.log(max(rho, LIK_FLOOR))
            val -= self.bm1[1] * math.log(max(1.0 - rho, LIK_FLOOR))
        return val

    def derivatives(self, x: np.ndarray, curvature: bool = True):
        """Gradient and, if ``curvature``, Hessian diagonal of P in x; None where P is infinite."""
        rest = 1.0 - x[-1]
        if not x.min(initial=math.inf, where=self.weighted) > 0.0 or (self.tail and not rest > 0.0):
            return None
        grad = -_over(self.weights, x, self.weighted)
        curv = _over(self.weights, x * x, self.weighted) if curvature else None
        if self.tail:
            grad[-1] -= self.tail / rest
            if curvature:
                curv[-1] -= self.tail / (rest * rest)
        return grad, curv

    def chart_gradient(self, pi: np.ndarray, rho: float):
        """P's gradient in pi and its derivative in rho, open-set; None where P is infinite."""
        b0, b1 = self.bm1
        weighted = self.weighted[:-1]
        if not (pi.min(initial=math.inf, where=weighted) > 0.0
                and (b0 == 0.0 or rho > 0.0) and (b1 == 0.0 or rho < 1.0)):
            return None
        g_rho = (b1 / (1.0 - rho) if b1 else 0.0) - (b0 / rho if b0 else 0.0)
        return -_over(self.am1, pi, weighted), g_rho


def _over(a: np.ndarray, b: np.ndarray, where: np.ndarray) -> np.ndarray:
    """``a / b`` where ``where`` (``a > 0``) holds and 0 elsewhere, where b may be 0."""
    return np.divide(a, b, out=np.zeros(a.size), where=where)


def objective(d: np.ndarray, pi: np.ndarray, rho, prior: Prior, out=None) -> float:
    """The fit's objective at (pi, rho): the NLL of ``d = W @ mixing(pi, rho)`` plus P.

    For MAP fits it is the negative log-posterior, normalizing constants
    dropped. ``out`` is as for ``nll``.
    """
    return nll(d, out=out) + prior.value(pi, rho)


def certificate(pi: np.ndarray, rho, x: np.ndarray, u: np.ndarray, n: float, prior: Prior) -> float:
    """The certificate at (pi, rho), given ``x = mixing(pi, rho)`` and ``u = e_step(W, W @ x)``.

    The Frank-Wolfe gap of the objective per target row (of ``n``, or 1 for
    none); +inf where P is infinite. Where the objective is convex in x
    (``Prior.convex``) it is taken over x on the simplex, ``x . g - min_j g_j``
    with ``g = grad P(x) - u``; elsewhere over (pi, rho) in the simplex times
    [0, 1], where it stays finite as rho falls to 0.
    """
    if prior.convex:
        derivs = prior.derivatives(x, curvature=False)
        if derivs is None:
            return math.inf
        g = derivs[0] - u
        gap = float(x @ g - g.min())
    else:
        derivs = prior.chart_gradient(pi, rho)
        if derivs is None:
            return math.inf
        k = pi.size
        g_pi = derivs[0] - rho * u[:k]
        g_rho = derivs[1] + float(u[k] - pi @ u[:k])
        gap = float(pi @ g_pi - g_pi.min()) + max(rho * g_rho, (rho - 1.0) * g_rho)
    return max(gap, 0.0) / max(n, 1.0)


def open_m_step(s: np.ndarray, n: float, prior: Prior):
    """Open-set M-step from the K+1 E-step column sums under ``prior``; returns (pi, rho).

    pi is None when its update is undefined (all mass on the OOD class under
    maximum likelihood), in which case the previous pi should be kept. The ID
    mass ``n - s[K]`` is clamped at 0, as rounding can leave it a few ulp below.
    """
    k = s.size - 1
    b0, b1 = prior.bm1
    n_in = max(n - s[k], 0.0)
    mass = s[:k] + prior.am1
    denom_pi = n_in + prior.am1_sum
    pi = None if denom_pi == 0.0 or not mass.any() else mass / denom_pi
    rho = (n_in + b0) / (n + b0 + b1)
    return pi, float(rho)


def closed_m_step(s: np.ndarray, n: float, prior: Prior) -> np.ndarray:
    """Closed-set M-step from the K E-step column sums under ``prior``."""
    return (s + prior.am1) / (n + prior.am1_sum)


def _em_map(n, prior: Prior, pi, rho, x, u):
    """One EM map from (pi, rho), given x = mixing(pi, rho) and ``u = e_step(W, W @ x)``.

    Returns (pi, rho, frozen): the updated pair and whether the pi update was
    skipped because it was undefined.
    """
    s = x * u  # the E-step's column sums
    if rho is None:
        return closed_m_step(s, n, prior), None, False
    pi_new, rho_new = open_m_step(s, n, prior)
    if pi_new is None:
        return pi, rho_new, True
    return pi_new, rho_new, False


def _from_mixing(x: np.ndarray, open_set: bool):
    """(pi, rho) of mixing weights x >= 0 with a positive sum; rho None closed-set."""
    if not open_set:
        return x / x.sum(), None
    x_in = float(x[:-1].sum())
    pi = x[:-1] / x_in if x_in > 0.0 else None
    return pi, x_in / (x_in + float(x[-1]))


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
    return _from_mixing(x, open_set)


# Entries of W / d below this are left out of the Hessian, so no product of two
# entries is subnormal: such a product takes a slow path on x86, and an entry
# this small moves no Hessian entry that a step depends on.
_HALF_TINY = math.sqrt(np.finfo(float).tiny)
# Newton's Hessian blocks narrower than this are multiplied by a copy (``_Newton._hessian``).
_SYRK_COLUMNS = 16
# Newton's Hessian is summed over at least this many blocks of rows, so its block
# buffers stay small beside W: a buffer the size of W is fresh memory at each
# step, and its page faults cost more than the product (N = 5000, K + 1 = 11).
_HESSIAN_SPLIT = 8
# Halvings of a Newton step before the line search declines it.
_NEWTON_HALVINGS = 10
# Two objectives closer than this share of ``|objective| + N``, about the rounding
# of a sum of N logs, are compared by their certificates (``_lower``).
_ROUNDING = 64 * np.finfo(float).eps
# The certificate at or below which the hand-over rule first weighs Newton steps.
_NEWTON_START = 1e-2
# SQUAREM's rate is read over at least this many of the fit's last steps.
_RATE_WINDOW = 6


class _Newton:
    """Damped Newton steps for one fit's objective in its mixing weights x, ``-sum(log(W x)) + P``."""

    def __init__(self, w: np.ndarray, prior: Prior, open_set: bool, scratch: np.ndarray):
        self.w, self.prior, self.open_set, self.scratch = w, prior, open_set, scratch

    def step(self, x: np.ndarray, d: np.ndarray, u: np.ndarray, obj: float, cert: float):
        """The next (pi, rho, x, d, objective, u) from x, or None if the step is declined.

        ``d = W x > 0``, ``u = e_step(W, d)`` and ``obj`` and ``cert`` are the
        objective and certificate at x. The QP over the support of x, plus each
        zero coordinate whose gradient breaks the KKT conditions, gives the full
        step; halving it until the point is better (``_better``) is the line
        search.
        """
        derivs = self.prior.derivatives(x)
        if derivs is None:
            return None
        grad, curv = derivs
        grad -= u
        support = np.flatnonzero((x > 0.0) | (grad < float(x @ grad)))
        h = self._hessian(np.divide(1.0, d, out=self.scratch), support)
        h.flat[:: support.size + 1] += curv[support]
        y = simplex_qp(h, grad[support], x[support], self.prior.convex)
        if y is None:
            return None
        full = np.zeros(x.size)
        full[support] = y  # exact zeros where the QP set them
        # Each point is taken as its own sum divides it, so the direction is
        # too: near the optimum a sum's last bit outweighs the step.
        step = full / full.sum() - x / x.sum()
        if not float((grad - float(x @ grad)) @ step) < 0.0:  # the slope along the simplex
            return None
        t = 1.0
        for _ in range(_NEWTON_HALVINGS):
            pi, rho = _from_mixing(full if t == 1.0 else np.maximum(x + t * step, 0.0),
                                   self.open_set)
            if pi is None:
                return None
            point = _better(self.w, pi, rho, obj, cert, self.prior, self.scratch)
            if point is not None:
                return point
            t *= 0.5
        return None

    def _hessian(self, inv_d: np.ndarray, support: np.ndarray) -> np.ndarray:
        """``W_S' diag(1 / d^2) W_S`` on the columns ``support``, summed over blocks of rows.

        B is ``W_S / d``, a block of rows at a time. numpy hands ``B.T @ B`` to
        BLAS syrk; below ``_SYRK_COLUMNS`` columns a general product with a copy
        of B is faster (OpenBLAS on 2 cores: 95 against 163 us for a block of
        5957 x 11), so narrow blocks take that.
        """
        w, m = self.w, support.size
        whole = m == w.shape[1]
        h = np.zeros((m, m))
        cells = min(BLOCK_CELLS, max(w.shape[0] * m // _HESSIAN_SPLIT, 1))
        blocks = row_blocks(w.shape[0], m, cells)
        narrow = m < _SYRK_COLUMNS
        # Column-major block buffers, as W is: the scaled block and its copy.
        rows = max((j - i for i, j in blocks), default=0)
        buf = [np.empty((m, rows)).T for _ in range(1 + narrow)]
        for i, j in blocks:
            block = buf[0][: j - i]
            if whole:
                np.multiply(w[i:j], inv_d[i:j, None], out=block)
            else:
                np.take(w[i:j], support, axis=1, out=block)
                block *= inv_d[i:j, None]
            if block.min() < _HALF_TINY:
                np.multiply(block, block >= _HALF_TINY, out=block)
            other = block
            if narrow:
                other = buf[1][: j - i]
                other[...] = block
            h += block.T @ other
        return h


def _lower(obj: float, obj_new: float, rows: int) -> Optional[bool]:
    """Whether the objective ``obj_new`` is below ``obj``, summed over ``rows`` rows.

    None where the two lie within ``_ROUNDING`` of each other: their difference
    is then rounding, and the caller compares certificates instead.
    """
    band = _ROUNDING * (abs(obj) + rows)
    if obj - band <= obj_new <= obj + band:
        return None
    return obj_new < obj


def _better(w: np.ndarray, pi, rho, obj: float, cert: float, prior: Prior, scratch):
    """(pi, rho, x, d, objective, u) at (pi, rho) if it is better than a point of objective
    ``obj`` and certificate ``cert``, else None.

    Better: every ``d = W @ mixing(pi, rho)`` is positive, and the objective is
    lower (``_lower``) or, where the two lie within rounding, the certificate is
    below ``cert``. u is ``e_step(W, d)`` where the certificate was needed.
    """
    x = mixing(pi, rho)
    d = w @ x
    if not d.min(initial=math.inf) > 0.0:
        return None
    obj_x = objective(d, pi, rho, prior, scratch)
    better, u = _lower(obj, obj_x, d.size), None
    if better is None:
        u = e_step(w, d, scratch)
        better = certificate(pi, rho, x, u, d.size, prior) < cert
    return (pi, rho, x, d, obj_x, u) if better else None


def _step_cost(x: np.ndarray) -> float:
    """One Newton step's cost in EM maps on the support of x.

    A step forms H, about ``N m^2 / 2`` multiply-adds on a support of m
    columns, where one map's two matrix-vector products are ``2 N K1`` on all
    K1 columns; with the objective, the QP and the E-step at the new point it
    costs about ``2 + m^2 / (4 K1)`` maps (measured: 4 to 6 at K1 = 11 and 19
    to 24 at K1 = 101, N 5e3 to 1e5).
    """
    support = int(np.count_nonzero(x > 0.0))
    return 2.0 + support * support / (4.0 * x.size)


def _newton_pays(cert: float, tol: float, rate: float, x: np.ndarray) -> bool:
    """Whether Newton steps from x reach ``tol`` for less work than more EM maps.

    Newton steps square the certificate, so about ``2 + log2(log(tol) /
    log(cert))`` of them reach tol, each costing ``_step_cost(x)`` maps;
    SQUAREM, at its observed ``rate`` per map, needs ``log(tol / cert) /
    log(rate)`` maps. Newton steps are weighed only once the certificate is at
    or below ``_NEWTON_START``, where the support of x has settled.
    """
    if not (cert <= _NEWTON_START and tol < cert):
        return False
    steps = 2.0 + math.log2(max(math.log(tol) / math.log(cert), 1.0))
    return rate >= 1.0 or math.log(tol / cert) / math.log(rate) > steps * _step_cost(x)


def fit(w: np.ndarray, pi0, rho0, config: EmConfig) -> EmTrace:
    """EM for (pi, rho) on W = fe / ce, or for pi alone on W = f / c when rho0 is None.

    ``config`` gives the K Dirichlet parameters on pi, the Beta pair on
    (rho, 1 - rho), which a closed-set fit ignores, and the budget: at most
    ``config.max_iters`` EM maps and Newton steps in all.

    With ``tol = 0`` every step is a plain EM update and all ``max_iters`` run.
    With ``tol > 0`` the fit stops once its certificate, read from each
    E-step's matrix-vector product, is at or below ``tol``. Every two accepted
    maps are followed by a SQUAREM extrapolation on the mixing weights x and
    one stabilising map from the extrapolated point. The stabilised point is
    kept only if the extrapolation stayed in the open simplex with every
    ``d > 0``, its map did not freeze pi, and it is better than the plain
    iterate (see the module docstring); otherwise the fit goes on from the
    plain iterate.

    Once ``_newton_pays`` finds Newton steps cheaper than the maps SQUAREM
    still needs, the fit hands over to damped Newton steps on the support of
    x (``_Newton``). A step the Cholesky test or the line search declines
    hands back to SQUAREM until as many maps as a step costs have run.

    Raises DegenerateSample, naming the first sample, when an iterate gives a
    sample zero likelihood.
    """
    max_iters, tol = config.max_iters, config.tol
    n = float(w.shape[0])
    pi = np.array(pi0, dtype=np.float64)
    rho = None if rho0 is None else float(rho0)
    open_set = rho is not None
    bm1 = (config.alpha_out[0] - 1.0, config.alpha_out[1] - 1.0)
    prior = Prior(config.resolved_alpha_in(pi.size) - 1.0, bm1 if open_set else None)
    scratch = np.empty(w.shape[0])  # 1 / d and log d, one after the other
    frozen = False
    x = mixing(pi, rho)
    d = w @ x
    obj = [objective(d, pi, rho, prior, scratch)]
    maps = steps = 0
    cycle = [x]  # mixing vectors since the last extrapolation or restart
    converged = False
    cert = math.inf
    u = None  # e_step(w, d) at x, once formed
    newton = _Newton(w, prior, open_set, scratch) if tol > 0.0 else None
    newton_on = False
    newton_after = 0  # maps and steps spent before the hand-over rule is weighed again
    history = []  # (maps and steps spent, lowest certificate yet) at each iterate SQUAREM accepted

    while True:
        spent = maps + steps
        if not d.min(initial=math.inf) > 0.0:
            if spent >= max_iters:
                cert = math.inf
                break
            raise DegenerateSample(int(np.argmax(d <= 0.0)))
        if u is None:
            u = e_step(w, d, scratch)
        cert = certificate(pi, rho, x, u, n, prior)
        if tol > 0.0 and cert <= tol:
            converged = True
            break
        if spent >= max_iters:
            break
        if tol > 0.0 and not newton_on:
            history.append((spent, min(cert, history[-1][1]) if history else cert))
            if spent >= newton_after:
                newton_on = _newton_pays(cert, tol, _rate(history), x)
        if newton_on:
            steps += 1
            y = newton.step(x, d, u, obj[-1], cert)
            if y is not None:
                pi, rho, x, d, obj_y, u = y
                obj.append(obj_y)
                cycle = [x]
                continue
            newton_on, newton_after = False, spent + 1 + _step_cost(x)
            if maps + steps >= max_iters:
                continue
        pi, rho, froze = _em_map(n, prior, pi, rho, x, u)
        maps += 1
        frozen |= froze
        x = mixing(pi, rho)
        d = w @ x
        u = None
        obj.append(objective(d, pi, rho, prior, scratch))
        if tol == 0.0:
            continue
        cycle = [x] if froze else cycle + [x]
        if len(cycle) < 3 or maps + steps == max_iters:
            continue
        trial = _extrapolate(*cycle, open_set)
        cycle = [x]
        if trial is None:
            continue
        x_ex = mixing(*trial)
        d_ex = w @ x_ex
        if d_ex.min(initial=math.inf) <= 0.0:
            continue
        pi_y, rho_y, froze = _em_map(n, prior, *trial, x_ex, e_step(w, d_ex, scratch))
        maps += 1
        if froze:
            continue
        point = _better(w, pi_y, rho_y, obj[-1], cert, prior, scratch)
        if point is None:
            continue
        pi, rho, x, d, obj_y, u = point
        obj.append(obj_y)
        cycle = [x]
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
        newton_steps=steps,
        certificate=cert,
    )


def _rate(history: list) -> float:
    """The lowest certificate's observed factor per step over at least ``_RATE_WINDOW`` steps.

    SQUAREM's certificate rises and falls within a cycle; its running minimum
    does not rise, so its rate is read from that.
    """
    spent, cert = history[-1]
    for before, old in reversed(history[:-1]):
        if spent - before >= _RATE_WINDOW:
            if not (old > 0.0 and cert > 0.0):
                return 1.0
            return (cert / old) ** (1.0 / (spent - before))
    return 1.0


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
