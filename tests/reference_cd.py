"""Reference coordinate-descent solver: the plain form of `sbp.sparse_modeling.fit`.

`fit` here keeps numpy weights, computes `col @ dz` on every coordinate
visit, updates `dz += d * col`, and checks on every outer iteration that the
objective did not increase (pytest runs without `-O`, so the assertion is
live). `lambda_search` and `dedup` are the package's, built on this `fit`,
with `dedup` grouping columns by their bytes. The package's solver sums in
another order, so the tests hold it to these models within round-off: the
same support, lambda, flags and predictions, every parameter within 1e-12,
and an objective no higher than this one's plus 1e-12.
"""

import math
from dataclasses import replace

import numpy as np

from sbp.sparse_modeling import LAMBDA_PROBES, SparseModel, eval_accuracy
from tests.conftest import int8_rows

CURVATURE = 0.25
INNER_SWEEPS = 10


def objective(z, y, w, lam, alpha):
    """Mean logistic loss plus the elastic-net penalty, at margin vector z."""
    loss = float(np.mean(np.logaddexp(0.0, z) - y * z))
    pen = lam * (alpha * np.abs(w).sum() + 0.5 * (1 - alpha) * (w @ w))
    return loss + pen


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _soft(v, t):
    if v > t:
        return v - t
    if v < -t:
        return v + t
    return 0.0


def fit(dataset, lam, alpha, config, columns=None):
    m = dataset.m
    if m < 1:
        raise ValueError("fit requires at least one sample")
    X = np.asfortranarray(int8_rows(dataset), dtype=np.float64) if columns is None else columns
    y = dataset.y.astype(np.float64)
    l = X.shape[1]
    h = CURVATURE
    l1 = lam * alpha
    denom = h + lam * (1.0 - alpha)
    tol = config.tolerance
    w = np.zeros(l)
    b = 0.0
    z = np.zeros(m)
    active = np.zeros(l, dtype=bool)
    converged = False
    prev_obj = math.inf
    for _ in range(config.max_iterations):
        p = _sigmoid(z)
        r = p - y
        g0 = (X.T @ r) / m
        gb0 = float(r.mean())
        if __debug__:
            obj = objective(z, y, w, lam, alpha)
            assert obj <= prev_obj + 1e-9 * (1.0 + abs(prev_obj)), "objective increased"
            prev_obj = obj
        viol = ~active & (np.abs(g0) > l1)
        active |= viol
        idx = np.flatnonzero(active)
        # Coordinate descent on the majorizer centered at the current point.
        dz = np.zeros(m)
        first_sweep_delta = None
        for _sweep in range(INNER_SWEEPS):
            max_delta = 0.0
            gb = gb0 + h * float(dz.mean())
            db = -gb / h
            if db != 0.0:
                b += db
                dz += db
                max_delta = abs(db)
            for j in idx:
                col = X[:, j]
                gj = g0[j] + h * float(col @ dz) / m
                wj = w[j]
                wn = _soft(h * wj - gj, l1) / denom
                d = wn - wj
                if d != 0.0:
                    w[j] = wn
                    dz += d * col
                    if abs(d) > max_delta:
                        max_delta = abs(d)
            if first_sweep_delta is None:
                first_sweep_delta = max_delta
            if max_delta < tol:
                break
        z = z + dz
        if not viol.any() and first_sweep_delta < tol:
            converged = True
            break
    w[np.abs(w) < 10.0 * tol] = 0.0
    scores = b + int8_rows(dataset) @ w
    accuracy = float(np.mean((scores >= 0) == dataset.y))
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
    lo = math.log(config.lambda_min)
    hi = math.log(config.lambda_max)
    probes = []
    columns = np.asfortranarray(int8_rows(dataset), dtype=np.float64)
    for _ in range(LAMBDA_PROBES):
        mid = (lo + hi) / 2.0
        model = fit(dataset, math.exp(mid), config.elasticnet_alpha, config, columns)
        probes.append(model)
        if model.accuracy >= config.accuracy_stop:
            lo = mid
        else:
            hi = mid
    accurate = [p for p in probes if p.accuracy >= config.accuracy_stop]
    if accurate:
        return min(accurate, key=lambda p: (p.nnz, p.lam))
    best = max(probes, key=lambda p: p.accuracy)
    best.sufficient = False
    return best


def dedup(dataset, lasso_model, config):
    alpha = config.elasticnet_alpha if config.elasticnet_alpha < 1.0 else 0.5
    en = fit(dataset, lasso_model.lam, alpha, config)
    groups = {}
    x = int8_rows(dataset)
    for j in sorted(en.weights):
        key = x[:, j].tobytes()
        groups.setdefault(key, []).append(j)
    weights = {}
    for members in groups.values():
        total = sum(en.weights[j] for j in members)
        if total != 0.0:
            weights[members[0]] = total
    collapsed = replace(en, weights=weights, sufficient=lasso_model.sufficient)
    collapsed.accuracy = eval_accuracy(collapsed, dataset)
    if collapsed.accuracy < lasso_model.accuracy - 0.001:
        return lasso_model
    return collapsed
