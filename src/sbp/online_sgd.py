"""Online sparse linear modeling: logistic SGD with cumulative L1 penalty
(clip-at-zero), plus adaptive lambda keeping the non-zero weight count capped."""

from dataclasses import dataclass, field

import numpy as np

from .history import iter_datasets


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


@dataclass
class OnlineResult:
    pc: int
    occurrences: int
    mispredictions: int
    nnz_avg: float
    nnz_samples: list = field(default_factory=list)
    final_lambda: float = 0.0


def run_online(trace, history, target_pcs=None, config=None):
    """Predict each post-warmup occurrence of every target before updating its
    per-branch online model. Models see their own branch's samples in trace
    order, so the branches are replayed one after another; nnz is sampled (and
    lambda adapted) every adaptation_interval updates. Returns {pc:
    OnlineResult} in the order of each branch's first post-warmup occurrence."""
    config = config or OnlineConfig()
    results = {}
    for ds in iter_datasets(trace, history, target_pcs):
        model = OnlineModel.fresh(ds.target_pc, history.l, config)
        mispredictions = 0
        samples = []
        for x, taken in zip(ds.x, ds.y.tolist()):
            if online_predict(model, x) != taken:
                mispredictions += 1
            online_update(model, x, taken)
            if model.update_count % config.adaptation_interval == 0:
                samples.append(model.nnz)
                adapt_lambda(model, config)
        samples = samples or [model.nnz]
        results[ds.target_pc] = OnlineResult(
            pc=ds.target_pc,
            occurrences=ds.m,
            mispredictions=mispredictions,
            nnz_avg=sum(samples) / len(samples),
            nnz_samples=samples,
            final_lambda=model.lam,
        )
    return results
