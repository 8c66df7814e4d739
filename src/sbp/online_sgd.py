"""Online sparse linear modeling: logistic SGD with cumulative L1 penalty
(clip-at-zero), plus adaptive lambda keeping the non-zero weight count capped.

Each branch's model sees only its own samples, so step t updates the t-th
sample of every branch at once, one row per branch. Each row repeats the
per-sample arithmetic operation for operation (`w.x` is one dot product per
row, by a batched matmul): the results are those of one branch at a time.
While one branch alone is live (a single-target run, or the tail of a longer
branch), it steps in the per-sample form itself: one dot product and one
scalar `exp` per sample, with the bias, u and lambda as Python floats, where
the lockstep form would pay for some twenty ufunc calls on (1, l) arrays.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .history import GATHER_ROWS, sample_rows


@dataclass
class OnlineConfig:
    lambda_init: float = 0.01
    lambda_min: float = 1e-5
    lambda_max: float = 0.1
    nnz_cap: int = 50
    eta: float = 0.05
    adaptation_interval: int = 1000

    def __post_init__(self):
        if not self.lambda_min <= self.lambda_init <= self.lambda_max:
            raise ValueError("lambda_init must lie within [lambda_min, lambda_max]")
        if self.lambda_init > 0.0 >= self.lambda_min:  # halving would reach 0
            raise ValueError("lambda_min must be positive when lambda_init is")
        if not (math.isfinite(self.eta) and self.eta > 0.0):
            raise ConfigError(f"eta {self.eta!r}: need a finite learning rate above 0")


@dataclass
class OnlineResult:
    pc: int
    occurrences: int
    mispredictions: int
    nnz_avg: float
    nnz_samples: list = field(default_factory=list)
    final_lambda: float = 0.0
    model: tuple = ()  # final (weights, bias, u, q_vec) of the penalty bookkeeping


def run_online(trace, history, target_pcs=None, config=None):
    """Predict each post-warmup occurrence of every target before updating its
    per-branch online model; nnz is sampled (and lambda adapted) every
    adaptation_interval updates. Returns {pc: OnlineResult} in the order of
    each branch's first post-warmup occurrence."""
    config = config or OnlineConfig()
    branches, rows = sample_rows(trace, history, target_pcs)
    rank = np.array(sorted(range(len(branches)), key=lambda i: -branches[i][1]), dtype=np.int64)
    m = np.array([branches[i][1] for i in rank])  # row r is branch rank[r]: by sample count
    n, l = len(m), history.l
    # u and eta*lam repeat across a row's columns and the bias is negated,
    # so that each update is one elementwise operation on equal shapes.
    w, q, u, eta_lam = np.zeros((4, n, l))
    neg_bias, lam = np.zeros(n), np.full(n, config.lambda_init, dtype=np.float64)
    eta_lam[:] = config.eta * config.lambda_init
    misp, samples = np.zeros(n, dtype=np.int64), []  # nnz of the live rows, per adaptation
    buf, t0 = np.empty(max(GATHER_ROWS, n) * l), 0
    while n and t0 < m[0]:
        k = int(np.count_nonzero(m > t0))  # live at t0, and through t0 + steps - 1
        steps = max(1, min(GATHER_ROWS // k, m[k - 1] - t0))
        x = buf[: steps * k * l].reshape(steps, k, l)
        y = rows(rank[:k], np.arange(t0, t0 + steps)[:, None], x)
        steps_of = _single_steps if k == 1 else _lockstep_steps
        misp[:k] += steps_of(x, y, w[:k], q[:k], u[:k], eta_lam[:k], neg_bias[:k], lam[:k],
                             t0, config, samples)
        t0 += steps
    results = {}
    for r in sorted(range(n), key=rank.__getitem__):  # first-sample order
        nnz = [at[r] for at in samples if r < len(at)] or [int(np.count_nonzero(w[r]))]
        pc, mean = branches[rank[r]][0], sum(nnz) / len(nnz)
        results[pc] = OnlineResult(pc, int(m[r]), int(misp[r]), mean, nnz, float(lam[r]),
                                   (w[r], -float(neg_bias[r]), float(u[r, 0]), q[r]))
    return results


def _lockstep_steps(x, y, wk, qk, uk, elk, nbk, lk, t0, config, samples):
    """Samples t0, t0+1, ... of the k live branches in lockstep: x is (steps,
    k, l), y (steps, k), and each state row advances in place. Returns each
    row's number of mispredictions."""
    steps, k, l = x.shape
    cap = config.nnz_cap
    w3, nz, g = wk[:, None, :], np.empty((steps, k)), np.empty(k)
    ones, eta, gx = np.ones(k), np.full(k, config.eta), np.empty((k, l))
    sgn, new, zero = *np.empty((2, k, l)), np.zeros((k, l))
    clipped = np.empty((k, l), dtype=bool)
    per_step = zip(x, x[..., None], nz, nz[..., None, None], y.view(np.int8).astype(np.float64))
    for step, (x1, x3, z1, z3, y1) in enumerate(per_step, t0 + 1):
        np.matmul(w3, x3, z3)
        np.subtract(nbk, z1, z1)  # -z = -bias - w.x
        np.exp(z1, g)  # g = eta * (sigmoid(z) - y)
        np.add(g, ones, g)
        np.divide(ones, g, g)
        np.subtract(g, y1, g)
        np.multiply(g, eta, g)
        gx[...] = g[:, None]
        np.multiply(gx, x1, gx)
        np.subtract(wk, gx, wk)
        np.add(nbk, g, nbk)
        np.add(uk, elk, uk)
        _clip(wk, qk, uk, sgn, new, zero, clipped)
        if step % config.adaptation_interval == 0:
            nnz = np.count_nonzero(wk, axis=1)
            samples.append(nnz.tolist())
            lk[:] = np.where(nnz > cap, np.minimum(lk * 2.0, config.lambda_max), np.where(
                nnz <= cap // 2, np.maximum(lk / 2.0, config.lambda_min), lk))
            elk[:] = (config.eta * lk)[:, None]
    return np.count_nonzero((nz <= 0.0) != y, axis=0)


def _single_steps(x, y, w, q, u, eta_lam, neg_bias, lam, t0, config, samples):
    """`_lockstep_steps` for one live branch (k = 1), in the per-sample form:
    the same operations on its 1-D state row, with one dot product and one
    scalar `exp` per sample and the bias, u and lambda as Python floats, so
    the results are the same floats. Returns the row's mispredictions."""
    w, q, eta, bias = w[0], q[0], config.eta, -float(neg_bias[0])
    u1, lam1, eta_lam1 = float(u[0, 0]), float(lam[0]), float(eta_lam[0, 0])
    gx, sgn, new = np.empty((3, len(w)))
    clipped, wrong = np.empty(len(w), dtype=bool), 0
    for step, (x1, y1) in enumerate(zip(x[:, 0], y[:, 0].tolist()), t0 + 1):
        z = bias + float(w @ x1)
        wrong += (z >= 0.0) != y1
        g = eta * (1.0 / (1.0 + float(np.exp(-z))) - y1)
        np.multiply(x1, g, gx)
        np.subtract(w, gx, w)
        bias -= g
        u1 += eta_lam1
        _clip(w, q, u1, sgn, new, 0.0, clipped)
        if step % config.adaptation_interval == 0:
            nnz = int(np.count_nonzero(w))
            samples.append([nnz])
            if nnz > config.nnz_cap:
                lam1 = min(lam1 * 2.0, config.lambda_max)
            elif nnz <= config.nnz_cap // 2:
                lam1 = max(lam1 / 2.0, config.lambda_min)
            eta_lam1 = eta * lam1
    neg_bias[0], u[0], lam[0], eta_lam[0] = -bias, u1, lam1, eta_lam1
    return wrong


def _clip(w, q, u, sgn, new, zero, clipped):
    """The cumulative-penalty clip, in place: w > 0 to max(0, w - (u + q)),
    w < 0 to min(0, w + (u - q)), as w - s*(u + s*q), s = sign(w), which
    rounds the same; q adds the shrinkage applied. At lambda 0 (plain SGD),
    u and q stay 0 and no weight moves. sgn, new and clipped are scratch
    arrays of w's shape; u and zero broadcast against it."""
    np.sign(w, sgn)
    np.multiply(sgn, q, new)
    np.add(new, u, new)
    np.multiply(new, sgn, new)
    np.subtract(w, new, new)
    np.multiply(sgn, new, sgn)
    np.less_equal(sgn, zero, clipped)  # crossed zero, or was zero
    new[clipped] = 0.0
    np.subtract(new, w, sgn)
    np.add(q, sgn, q)
    w[...] = new
