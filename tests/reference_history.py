"""Per-record reference replays of the branch history.

Shift-register GHR and per-PC LHR ints (bit 0 = newest outcome, 1 = taken)
advanced one trace record at a time and mapped to {-1, +1} with
`ints_to_pm1`. `sbp.history` gathers the same rows from the outcome column
with sliding windows; these loops are the oracle the tests compare it with.
"""

import numpy as np

from sbp.history import TrainingDataset, ints_to_pm1
from sbp.online_sgd import (
    OnlineConfig,
    OnlineModel,
    OnlineResult,
    adapt_lambda,
    online_predict,
    online_update,
)


def replay(trace, config, targets=None):
    """Yield (pc, ghr, lhr, taken) for each post-warmup target record, with
    the histories as they stood before the record's update."""
    warmup = config.gh + config.lh
    gmask = (1 << config.gh) - 1
    lmask = (1 << config.lh) - 1
    ghr = 0
    lhr = {}
    for i, (pc, taken) in enumerate(zip(trace.pc.tolist(), trace.taken.tolist())):
        if i >= warmup and (targets is None or pc in targets):
            yield pc, ghr, lhr.get(pc, 0), taken
        bit = 1 if taken else 0
        ghr = ((ghr << 1) | bit) & gmask
        lhr[pc] = ((lhr.get(pc, 0) << 1) | bit) & lmask


def features(ghrs, lhrs, config):
    return np.concatenate(
        [ints_to_pm1(ghrs, config.gh), ints_to_pm1(lhrs, config.lh)], axis=1
    )


def reference_collect_datasets(trace, config, targets=None):
    raw = {}  # pc -> (ghr ints, lhr ints, outcomes)
    for pc, ghr, lhr, taken in replay(trace, config, targets):
        entry = raw.setdefault(pc, ([], [], []))
        entry[0].append(ghr)
        entry[1].append(lhr)
        entry[2].append(taken)
    return {
        pc: TrainingDataset(pc, features(g, l, config), np.array(ys, dtype=bool), config)
        for pc, (g, l, ys) in raw.items()
    }


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
        )
    return results
