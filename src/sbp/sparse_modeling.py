"""Per-branch sparse logistic models: L1/ElasticNet fitting, lambda search, screening.

The solver is cyclic coordinate descent on a quadratic majorizer of the
logistic loss. Features are {-1,+1}, so every column has unit second moment
and the global curvature bound 1/4 serves as the per-coordinate Hessian.
Each outer iteration re-centers the majorizer at the current point (gradient
recomputed exactly), so the true objective is non-increasing across outer
iterations. `tests/reference_cd.py` keeps the plain form of the solver with
that check on every iteration; the tests hold `fit` to its models within
1e-12, with the same support, flags and predictions.

A branch is one `TrainingDataset` from collection to its last fit. What depends
on its data alone is computed once, from the one column-major float64 copy
of its features, and kept while the dataset lives, so every `lambda_search`
probe and the `dedup` refit read the same parts; the first outer iteration
starts from its gradient at the zero model. The coordinate steps use glmnet's
covariance updates (Friedman, Hastie & Tibshirani, J. Stat. Softw. 33(1),
2010, section 2.2): they read `X.T @ dz` and `sum(dz)` off the Gram matrix
`X.T @ X` and the column sums, both exact integer sums of +-1 products, so no
step touches an m-length array. Every sign rule of the trainer,
`b + x @ w >= 0`, is `TrainingDataset.signs`: one sum over the float64 copy.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

CURVATURE = 0.25  # sup of d^2/dz^2 log(1 + e^z)
LAMBDA_PROBES = 12  # binary-search probes for lambda (spec allows up to 20)
_INNER_SWEEPS = 10  # per majorizer re-centering; the outer loop resumes descent


@dataclass
class SolverConfig:
    lambda_min: float = 1e-4
    lambda_max: float = 1.0
    accuracy_stop: float = 0.99
    max_iterations: int = 100
    tolerance: float = 1e-4  # max parameter delta per sweep at convergence
    elasticnet_alpha: float = 1.0  # L1 mixing; 1.0 = pure Lasso

    def __post_init__(self):
        if not 0 < self.lambda_min <= self.lambda_max:
            raise ValueError("need 0 < lambda_min <= lambda_max")
        if not 0 < self.accuracy_stop <= 1:
            raise ValueError("accuracy_stop must be in (0, 1]")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if not 0 <= self.elasticnet_alpha <= 1:
            raise ValueError("elasticnet_alpha must be in [0, 1]")


@dataclass
class BranchScreen:
    min_occurrences: int = 10_000
    bias_low: float = 0.02
    bias_high: float = 0.98

    def __post_init__(self):
        if not 0 <= self.bias_low < self.bias_high <= 1:
            raise ValueError("need 0 <= bias_low < bias_high <= 1")


@dataclass
class SparseModel:
    pc: int
    bias: float
    weights: dict  # history index -> non-zero weight
    lam: float
    accuracy: float
    m: int
    converged: bool = True
    sufficient: bool = True  # met the lambda-search accuracy criterion

    @property
    def nnz(self):
        return len(self.weights)

    def weight_vector(self, l):
        w = np.zeros(l)
        for j, v in self.weights.items():
            w[j] = v
        return w


def _sigmoid(z, out=None):
    """1 / (1 + exp(-z)), into `out` if given."""
    out = np.exp(np.negative(z, out=out), out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


class TrainingDataset:
    """A branch's samples: the outcomes `y` ((m,) bool) and the (m, gh+lh)
    feature rows in {-1,+1}, GHR segment first, which `gather(out)` writes
    into `out` on each use. What its fits and scores read is built on first
    use and kept while it lives: `columns`, the one column-major float64 copy
    of the rows; `gram`, its `X.T @ X`; `colsum`, its column sums; `start`,
    the gradient and bias gradient at w = 0, b = 0; and `first[j]`, the
    smallest index of a column identical to column j (+-1 columns are
    identical exactly when their Gram entry is m)."""

    def __init__(self, target_pc, y, config, gather):
        self.target_pc, self.y, self.config, self._gather = target_pc, y, config, gather

    @property
    def m(self):
        return len(self.y)

    @property
    def taken_rate(self):
        return float(self.y.mean()) if self.m else 0.0

    def fill(self, out):
        """Write the (m, l) rows into `out`, any numeric array of that shape,
        and return it."""
        self._gather(out)
        return out

    def signs(self, bias, w):
        """`bias + x @ w >= 0` for every row, summed over `columns`."""
        s = self.columns @ w
        s += bias
        return s >= 0

    @cached_property
    def columns(self):
        return self.fill(np.empty((self.m, self.config.l), order="F"))

    @cached_property
    def gram(self):
        return self.columns.T @ self.columns

    @cached_property
    def colsum(self):
        return self.columns.sum(axis=0)

    @cached_property
    def start(self):
        r = 0.5 - self.y.astype(np.float64)  # p = 1/2 at zero margins
        return (self.columns.T @ r) / len(r), float(r.mean())

    @cached_property
    def first(self):
        return (self.gram == self.m).argmax(axis=1).tolist()


def fit(dataset, lam, alpha, config):
    """Minimize (1/m) sum logistic(y_i, f(x_i)) + lam*(alpha*|w|_1 + (1-alpha)/2*|w|_2^2).

    Bias is unpenalized. Weights with |w| < 10*tolerance are truncated to exact
    zero on return.
    """
    m = dataset.m
    if m < 1:
        raise ValueError("fit requires at least one sample")
    X, gram, colsum = dataset.columns, dataset.gram, dataset.colsum
    y = dataset.y.astype(np.float64)
    l = X.shape[1]
    h = CURVATURE
    l1 = lam * alpha
    denom = h + lam * (1.0 - alpha)
    tol = config.tolerance
    w = np.zeros(l)
    b = 0.0
    z, r, dz = np.zeros(m), np.empty(m), np.empty(m)
    g0, gb0 = dataset.start  # the gradient at w = 0, b = 0
    active = np.zeros(l, dtype=bool)
    idx = None
    converged = False
    for it in range(config.max_iterations):
        if it:
            _sigmoid(z, out=r)
            r -= y
            g0 = (X.T @ r) / m
            gb0 = float(r.mean())
        viol = ~active & (np.abs(g0) > l1)
        grew = bool(viol.any())
        if grew or idx is None:  # the active set never shrinks
            active |= viol
            idx = np.flatnonzero(active)
            rows = list(gram[np.ix_(idx, idx)])
            sums = colsum[idx]
            q, step = np.empty(len(idx)), np.empty(len(idx))
        # Coordinate descent on the majorizer centered at the current point
        # (weights `center` on the active columns idx, bias b_center). Each
        # step reads q = X[:, idx].T @ dz and sum(dz), dz being the margins'
        # move since the center, off the active Gram rows and column sums.
        g = g0[idx].tolist()
        center = w[idx]
        wa = center.tolist()
        q.fill(0.0)
        b_center = b
        first_sweep_delta = None
        for _sweep in range(_INNER_SWEEPS):
            max_delta = 0.0
            dz_sum = float(sums @ (np.array(wa) - center)) + m * (b - b_center)
            db = -(gb0 + h * (dz_sum / m)) / h
            if db != 0.0:
                b += db
                q += np.multiply(sums, db, step)
                max_delta = abs(db)
            for i, wj in enumerate(wa):
                v = h * wj - (g[i] + h * q.item(i) / m)
                if v > l1:
                    wn = (v - l1) / denom
                elif v < -l1:
                    wn = (v + l1) / denom
                else:
                    wn = 0.0
                d = wn - wj
                if d != 0.0:
                    wa[i] = wn
                    q += np.multiply(rows[i], d, step)
                    if abs(d) > max_delta:
                        max_delta = abs(d)
            if first_sweep_delta is None:
                first_sweep_delta = max_delta
            if max_delta < tol:
                break
        delta = np.array(wa) - center
        w[idx] = wa
        converged = not grew and first_sweep_delta < tol
        if converged or it + 1 == config.max_iterations:
            break  # the margins z are not read after the loop
        moved = np.flatnonzero(delta)
        if len(moved) == 1:  # one product per margin: exact for +-1 entries
            np.multiply(X[:, idx[moved[0]]], delta[moved[0]], dz)
        elif 4 * len(moved) <= l:  # then skip the full product
            np.matmul(X[:, idx[moved]], delta[moved], dz)
        else:
            dw = np.zeros(l)
            dw[idx] = delta
            np.matmul(X, dw, dz)
        dz += b - b_center
        z += dz
    w[np.abs(w) < 10.0 * tol] = 0.0
    accuracy = float(np.mean(dataset.signs(b, w) == dataset.y))
    weights = {int(j): float(w[j]) for j in np.flatnonzero(w)}
    return SparseModel(
        pc=dataset.target_pc,
        bias=float(b),
        weights=weights,
        lam=lam,
        accuracy=accuracy,
        m=m,
        converged=converged,
    )


def lambda_search(dataset, config):
    """Binary search on log-lambda for the sparsest model meeting accuracy_stop.

    Accurate probes push lambda up (sparser), inaccurate ones push it down.
    Falls back to the most accurate probe, flagged insufficient, when no probe
    reaches the stopping accuracy.
    """
    lo = math.log(config.lambda_min)
    hi = math.log(config.lambda_max)
    probes = []
    for _ in range(LAMBDA_PROBES):
        mid = (lo + hi) / 2.0
        model = fit(dataset, math.exp(mid), config.elasticnet_alpha, config)
        probes.append(model)
        if model.accuracy >= config.accuracy_stop:
            lo = mid
        else:
            hi = mid
    accurate = [p for p in probes if p.accuracy >= config.accuracy_stop]
    if accurate:
        # Ties on nnz break toward the smallest lambda: same sparsity, larger
        # weight margins (robust under later fixed-point quantization).
        return min(accurate, key=lambda p: (p.nnz, p.lam))
    best = max(probes, key=lambda p: p.accuracy)
    best.sufficient = False
    return best


def predictions(model, dataset):
    """Sign-rule directions (sum >= 0 -> taken) for every sample."""
    return dataset.signs(model.bias, model.weight_vector(dataset.config.l))


def correct_count(model, dataset):
    return int(np.sum(predictions(model, dataset) == dataset.y))


def eval_accuracy(model, dataset):
    return correct_count(model, dataset) / dataset.m if dataset.m else 0.0


def screen(dataset, screen_cfg):
    """True iff the branch is frequent enough and not highly biased."""
    return (
        dataset.m >= screen_cfg.min_occurrences
        and screen_cfg.bias_low <= dataset.taken_rate <= screen_cfg.bias_high
    )


def kkt_violation(model, dataset, alpha=1.0):
    """Max subgradient-condition violation of the elastic-net optimum at model.

    Zero coordinates must satisfy |g_j| <= lam*alpha; non-zero ones must have
    g_j + lam*alpha*sign(w_j) = 0 (L2 part folded into g).
    """
    w = model.weight_vector(dataset.config.l)
    r = _sigmoid(model.bias + dataset.columns @ w) - dataset.y.astype(np.float64)
    g = (dataset.columns.T @ r) / dataset.m
    g += model.lam * (1.0 - alpha) * w
    l1 = model.lam * alpha
    zero = w == 0
    v_zero = float(np.max(np.maximum(np.abs(g[zero]) - l1, 0.0))) if zero.any() else 0.0
    nz = ~zero
    v_nz = float(np.max(np.abs(g[nz] + l1 * np.sign(w[nz])))) if nz.any() else 0.0
    v_bias = abs(float(r.mean()))
    return max(v_zero, v_nz, v_bias)
