"""EM estimation of the target ID label distribution and ID data ratio.

The open-set problem is reparameterized through (K+1)-class extended vectors:
the target extended distribution [rho_t*pi, 1-rho_t] is fitted against the
source extended distribution [rho_s*c, 1-rho_s] using the combined classifier
output [h*f, 1-h] per sample. With all-ones priors the updates are maximum
likelihood; Dirichlet/Beta priors (alpha >= 1) give the MAP variant.

The per-sample posterior responsibilities are normalized over all K+1 classes
(the OOD class included), which is the form that makes each row of the E-step
a probability vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import _kernels
from .core import (
    DegenerateSample,
    ProbabilityVector,
    RecordSet,
    SourceLabelModel,
    TargetLabelModel,
    ValidationError,
    extend_distribution,
)

TargetLike = Union[RecordSet, Sequence]


@dataclass(frozen=True, eq=False)
class EmConfig:
    """EM settings: iteration budget, early-stop tolerance and prior strengths.

    ``tol`` is the L-infinity change in (pi, rho_t) below which iteration stops;
    the default 0.0 means "run all iterations". All-ones priors reduce the MAP
    updates to plain maximum likelihood.
    """

    max_iters: int = 100
    tol: float = 0.0
    alpha_in: Optional[np.ndarray] = None
    alpha_out: Tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValidationError("max_iters must be >= 1")
        if self.tol < 0.0:
            raise ValidationError("tol must be >= 0")
        if self.alpha_in is not None:
            arr = np.asarray(self.alpha_in, dtype=float)
            if arr.ndim != 1 or np.any(arr < 1.0):
                raise ValidationError("alpha_in entries must be >= 1")
            arr.flags.writeable = False
            object.__setattr__(self, "alpha_in", arr)
        a1, a2 = self.alpha_out
        if a1 < 1.0 or a2 < 1.0:
            raise ValidationError("alpha_out entries must be >= 1")
        object.__setattr__(self, "alpha_out", (float(a1), float(a2)))

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

    ``nll_per_iter[0]`` is the objective at the initial iterate and each later
    entry follows one EM update; for MAP runs the objective is the negative
    log-posterior (prior normalizing constants dropped). ``pi_update_frozen``
    flags iterations where all responsibility mass fell on the OOD class and
    the pi update was skipped.
    """

    nll_per_iter: np.ndarray
    pi_final: ProbabilityVector
    rho_t_final: float
    iterations_run: int
    converged: bool
    pi_update_frozen: bool = False


def _scaled_outputs(source: SourceLabelModel, target: RecordSet) -> np.ndarray:
    """The EM kernel's W = fe / ce: combined outputs scaled by the source extended prior."""
    if target.k != source.k:
        raise ValidationError(f"target has K={target.k} but source has K={source.k}")
    # Column-major W makes both E-step matrix-vector products about twice as fast.
    w = np.asfortranarray(target.extended_f())
    w /= source.extended().entries
    return w


def _fit(w, pi0, rho0, config: EmConfig, k: int, max_iters: int):
    out = _kernels.em_fit(w, pi0, rho0, config.resolved_alpha_in(k), config.alpha_out,
                          max_iters, config.tol)
    if out[-1] >= 0:
        raise DegenerateSample(out[-1])
    return out


def osls_nll(
    pi: Union[ProbabilityVector, Sequence[float], np.ndarray],
    rho_t: float,
    source: SourceLabelModel,
    target: TargetLike,
) -> float:
    """Negative log likelihood of (pi, rho_t), constant data term dropped.

    Inner sums are floored at 1e-300 before the log so underflowed samples
    contribute a large but finite penalty.
    """
    target = RecordSet.coerce(target)
    w = _scaled_outputs(source, target)
    return float(_kernels.nll(w @ extend_distribution(pi, rho_t).entries))


def m_step_update(
    col_sums: np.ndarray,
    n: int,
    alpha_in: Optional[np.ndarray] = None,
    alpha_out: Tuple[float, float] = (1.0, 1.0),
) -> Tuple[Optional[np.ndarray], float]:
    """One M-step from E-step column sums over the K+1 classes.

    Returns (pi, rho_t); pi is None when its update is undefined (all mass on
    the OOD class under maximum likelihood), in which case the previous pi
    should be kept.
    """
    col_sums = np.asarray(col_sums, dtype=float)
    k = col_sums.size - 1
    a_in = np.ones(k) if alpha_in is None else np.asarray(alpha_in, dtype=float)
    bm1 = (float(alpha_out[0]) - 1.0, float(alpha_out[1]) - 1.0)
    return _kernels.open_m_step(col_sums, float(n), a_in - 1.0, bm1)


def em_step(
    pi: Union[ProbabilityVector, Sequence[float], np.ndarray],
    rho_t: float,
    source: SourceLabelModel,
    target: TargetLike,
    config: Optional[EmConfig] = None,
) -> Tuple[ProbabilityVector, float]:
    """One E+M update of (pi, rho_t)."""
    config = config or EmConfig()
    target = RecordSet.coerce(target)
    pi = pi.entries if isinstance(pi, ProbabilityVector) else np.asarray(pi, dtype=float)
    if np.any(pi <= 0.0):
        raise ValidationError("em_step requires strictly positive pi")
    if not (0.0 < rho_t < 1.0):
        raise ValidationError("em_step requires rho_t strictly in (0, 1)")
    w = _scaled_outputs(source, target)
    pi_new, rho_new = _fit(w, pi, rho_t, config, target.k, 1)[:2]
    return ProbabilityVector(pi_new), rho_new


def run_em(
    source: SourceLabelModel,
    target: TargetLike,
    config: Optional[EmConfig] = None,
    init: Optional[TargetLabelModel] = None,
) -> EmTrace:
    """Fit (pi, rho_t) by EM, starting from pi = c and rho_t = rho_s by default."""
    config = config or EmConfig()
    target = RecordSet.coerce(target)
    w = _scaled_outputs(source, target)
    if init is None:
        pi0 = source.c.entries
        rho0 = source.rho_s
    else:
        pi0 = init.pi.entries
        rho0 = float(init.rho_t)
        if np.any(pi0 <= 0.0):
            raise ValidationError("initial pi must be strictly positive")
        if not (0.0 < rho0 < 1.0):
            raise ValidationError("initial rho_t must lie strictly in (0, 1)")
    pi, rho, obj, iters, converged, frozen, _ = _fit(w, pi0, rho0, config, target.k,
                                                     config.max_iters)
    obj.flags.writeable = False
    return EmTrace(
        nll_per_iter=obj,
        pi_final=ProbabilityVector(pi),
        rho_t_final=rho,
        iterations_run=iters,
        converged=converged,
        pi_update_frozen=frozen,
    )


def closed_form_rho_t(target: TargetLike) -> float:
    """Mean of h over the target set; valid for an exactly binary scorer."""
    target = RecordSet.coerce(target)
    binary = (target.h == 0.0) | (target.h == 1.0)
    if not np.all(binary):
        bad = int(np.argmin(binary))
        raise ValidationError(
            f"closed-form rho_t needs h in {{0, 1}}; sample {bad} has h={target.h[bad]}"
        )
    return float(np.mean(target.h))


def nll_grid_argmin(
    source: SourceLabelModel,
    target: TargetLike,
    resolution: float = 0.001,
) -> Tuple[float, float, float]:
    """NLL minimization over a uniform (pi_1, rho_t) grid, K = 2 only.

    Returns (pi_1, rho_t, nll) at the grid argmin, the lowest-index one on
    ties. Each pi_1 row is searched by bisection over rho_t, in which the NLL
    is convex; this is the grid route used to cross-check the EM optimizer.
    """
    target = RecordSet.coerce(target)
    if target.k != 2:
        raise ValidationError("grid search is implemented for K = 2 only")
    n_side = int(round(1.0 / resolution)) + 1
    i, j, value = _kernels.nll_grid_k2_argmin(_scaled_outputs(source, target), n_side)
    step = 1.0 / (n_side - 1)
    return i * step, j * step, value
