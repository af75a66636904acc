import os
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# Derandomized: every property test draws the same examples on every run, so
# the suite's verdict does not change from one run to the next.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")

from osls import em
from osls import pool as osls_pool
from osls.simulate import ShiftSpec, ring_config


def child_env() -> dict:
    """This process's environment with the package's source first on PYTHONPATH,
    for a child Python that imports ``osls``."""
    paths = [str(Path(osls_pool.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))


def feed_fifo(fifo: Path, source: Path) -> subprocess.Popen:
    """A process that copies ``source`` into the FIFO at ``fifo`` once a reader opens it.

    The writer is another process, as for a pipe into /dev/stdin: a process
    that held the FIFO's write end would pass it on to the workers it forks,
    and the FIFO would never end.
    """
    return subprocess.Popen(["sh", "-c", 'cat "$0" > "$1"', str(source), str(fifo)])


def join_fifo(fifo: Path, writer: subprocess.Popen) -> None:
    """Wait for ``writer``, first releasing it if no reader ever opened the FIFO."""
    if writer.poll() is None:
        os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
    writer.wait(10)


def easy_config(k=3, *, seed=0, shift=None, r=1.0, n=5000, n_ood=2500, rho_s=0.7,
                separation=5.0, temperature=1.0):
    """Well-separated oracle scenario: ID scores saturate near {0, 1}."""
    return ring_config(
        k,
        radius=separation,
        scale=1.0,
        rho_s=rho_s,
        n_source=n,
        n_target=n,
        n_ood_ref=n_ood,
        shift=shift or ShiftSpec.none(),
        r=r,
        seed=seed,
        temperature=temperature,
    )


def overlap_config(k=5, *, seed=0, shift=None, r=1.0, n=10_000, n_ood=5000, rho_s=0.7,
                   separation=2.2):
    """Overlapping classes: classifier outputs stay informative but soft."""
    return ring_config(
        k,
        radius=separation,
        scale=1.0,
        rho_s=rho_s,
        n_source=n,
        n_target=n,
        n_ood_ref=n_ood,
        shift=shift or ShiftSpec.none(),
        r=r,
        seed=seed,
    )


@pytest.fixture
def pools(monkeypatch):
    """The block pools handed out during a test, run even on a one-core machine."""
    monkeypatch.setattr(osls_pool.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    handed_out, real = [], osls_pool._pool

    def spy(workers):
        pool = real(workers)
        handed_out.append(pool)
        return pool

    monkeypatch.setattr(osls_pool, "_pool", spy)
    return handed_out


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def mle_em_path(w, pi0, rho0, iters):
    """Open-set EM written with the maximum-likelihood updates and no prior terms.

    The path a MAP fit with all-ones priors must reproduce bitwise: pi = s_in /
    (n - s_ood), rho = (n - s_ood) / n and the objective is the plain NLL.
    Returns (pi, rho, objective trace).
    """
    n = float(w.shape[0])
    k = pi0.size
    pi, rho = np.array(pi0, dtype=float), float(rho0)
    x = np.append(rho * pi, 1.0 - rho)
    d = w @ x
    trace = [em.nll(d)]
    for _ in range(iters):
        s = x * em.e_step(w, d)
        n_in = n - s[k]
        pi, rho = s[:k] / n_in, float(n_in / n)
        x = np.append(rho * pi, 1.0 - rho)
        d = w @ x
        trace.append(em.nll(d))
    return pi, rho, np.array(trace)


def plain_em(w, pi0, rho0, alpha, alpha_out, tol, max_iters):
    """Plain EM (no extrapolation) to an L-infinity step below ``tol``, for reference fits.

    Built from osls.em's E-step, M-steps and objective, but with its own
    loop. Returns (pi, rho, final objective, updates run, converged); ``rho``
    is None for a closed-set fit (rho0 None).
    """
    n = float(w.shape[0])
    am1 = np.asarray(alpha, dtype=float) - 1.0
    bm1 = (alpha_out[0] - 1.0, alpha_out[1] - 1.0)
    prior = em.Prior(am1, None if rho0 is None else bm1)
    pi, rho = np.array(pi0, dtype=float), rho0
    d = w @ em.mixing(pi, rho)
    for update in range(1, max_iters + 1):
        s = em.mixing(pi, rho) * em.e_step(w, d)
        if rho is None:
            pi_new, rho_new, change = em.closed_m_step(s, n, prior), None, 0.0
        else:
            pi_new, rho_new = em.open_m_step(s, n, prior)
            change = abs(rho_new - rho)
        change = max(change, float(np.max(np.abs(pi_new - pi))))
        pi, rho = pi_new, rho_new
        d = w @ em.mixing(pi, rho)
        if change < tol:
            break
    return pi, rho, em.objective(d, pi, rho, prior), update, change < tol
