"""Per-sample reference form of the online learner.

One `OnlineModel` per branch, advanced one sample at a time by
`online_update` (the logistic SGD step with cumulative-penalty clipping) and
`adapt_lambda`; `reference_run_online` advances every target's model as its
records come up in the trace. `sbp.online_sgd` runs the same arithmetic in
lockstep across branches; this is the oracle the tests compare it with.
"""

from dataclasses import dataclass

import numpy as np

from sbp.online_sgd import OnlineConfig, OnlineResult
from tests.reference_history import ints_to_pm1, replay


@dataclass
class OnlineModel:
    pc: int
    weights: np.ndarray  # dense, length l
    bias: float = 0.0
    u: float = 0.0  # cumulative penalty available so far
    q_vec: np.ndarray = None  # per-weight penalty already applied
    lam: float = 0.01
    eta: float = 0.05
    update_count: int = 0

    @classmethod
    def fresh(cls, pc, l, config):
        return cls(
            pc=pc,
            weights=np.zeros(l),
            q_vec=np.zeros(l),
            lam=config.lambda_init,
            eta=config.eta,
        )

    @property
    def nnz(self):
        return int(np.count_nonzero(self.weights))


def online_predict(model, x):
    """taken iff bias + w.x >= 0."""
    return model.bias + float(model.weights @ x) >= 0.0


def online_update(model, x, y):
    """One SGD-L1 step: logistic gradient, then cumulative-penalty clipping.

    Weights crossing zero are clipped to exact zero; q_vec records the
    shrinkage actually applied so the total penalty tracks u. With lam = 0 this
    is plain logistic SGD.
    """
    xd = x.astype(np.float64)
    z = model.bias + float(model.weights @ xd)
    g = 1.0 / (1.0 + np.exp(-z)) - (1.0 if y else 0.0)
    model.weights -= model.eta * g * xd
    model.bias -= model.eta * g
    model.u += model.eta * model.lam
    if model.lam > 0.0:
        w = model.weights
        before = w.copy()
        pos = w > 0
        neg = w < 0
        w[pos] = np.maximum(0.0, w[pos] - (model.u + model.q_vec[pos]))
        w[neg] = np.minimum(0.0, w[neg] + (model.u - model.q_vec[neg]))
        model.q_vec += w - before
    model.update_count += 1
    return model


def adapt_lambda(model, config):
    """Double lambda above the nnz cap, halve it below half the cap (hysteresis)."""
    nnz = model.nnz
    if nnz > config.nnz_cap:
        model.lam = min(model.lam * 2.0, config.lambda_max)
    elif nnz <= config.nnz_cap // 2:
        model.lam = max(model.lam / 2.0, config.lambda_min)
    return model


def reference_run_online(trace, history, target_pcs=None, config=None):
    """Interleaved per-record online replay: every target's model advances
    as its records come up in the trace."""
    config = config or OnlineConfig()
    models, misp, samples = {}, {}, {}
    for pc, ghr, lhr, taken in replay(trace, history, target_pcs):
        model = models.get(pc)
        if model is None:
            model = models[pc] = OnlineModel.fresh(pc, history.l, config)
            misp[pc] = 0
            samples[pc] = []
        x = np.concatenate(
            [ints_to_pm1([ghr], history.gh)[0], ints_to_pm1([lhr], history.lh)[0]]
        )
        if online_predict(model, x) != taken:
            misp[pc] += 1
        online_update(model, x, taken)
        if model.update_count % config.adaptation_interval == 0:
            samples[pc].append(model.nnz)
            adapt_lambda(model, config)
    results = {}
    for pc, model in models.items():
        ss = samples[pc] or [model.nnz]
        results[pc] = OnlineResult(
            pc=pc,
            occurrences=model.update_count,
            mispredictions=misp[pc],
            nnz_avg=sum(ss) / len(ss),
            nnz_samples=ss,
            final_lambda=model.lam,
            model=(model.weights, float(model.bias), float(model.u), model.q_vec),
        )
    return results
