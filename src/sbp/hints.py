"""Model compression and hint-set assembly.

Covers Q[I].[F] weight quantization, duplicate-history-column collapsing,
candidate scoring/selection under a bit budget, and the CAM slot layout that
both the storage accounting and the bit-packed hint file (magic "SBPH") read.
"""

import itertools
import math
import struct
from dataclasses import asdict, astuple, dataclass, replace

from .errors import ConfigError, HintFormatError
from .sparse_modeling import eval_accuracy, fit

HINT_MAGIC = b"SBPH"
HINT_VERSION = 1
FP32_WIDTH = 32  # q value meaning "unquantized float32 weights"
PC_BITS = 64  # branch PC width (p) of every hint set the framework builds
U16_MAX = 0xFFFF  # largest lh, gh, N, nnz, q or p: the hint file header holds them as u16


@dataclass(frozen=True)
class QuantSpec:
    integer_bits: int
    fraction_bits: int

    @property
    def q(self):
        return 1 + self.integer_bits + self.fraction_bits

    @property
    def max_value(self):
        return (1 << self.integer_bits) - 2.0 ** -self.fraction_bits

    @property
    def min_value(self):
        return -float(1 << self.integer_bits)

    @classmethod
    def parse(cls, text):
        """Accepts "3.4", "3.12" (either with a "q" prefix) or "fp32" (None =
        full precision); anything else is a ConfigError. The hint file stores
        only the weight width, so these are the only formats it can represent."""
        t = text.lower().lstrip("q")
        if t not in _SPECS:
            raise ConfigError(f"unsupported quantization {text!r}: use 3.4, 3.12 or fp32")
        return _SPECS[t]


Q3_4 = QuantSpec(3, 4)
Q3_12 = QuantSpec(3, 12)
_SPECS = {"3.4": Q3_4, "3.12": Q3_12, "fp32": None}
_BY_WIDTH = {FP32_WIDTH if spec is None else spec.q: spec for spec in _SPECS.values()}


def _spec_for_width(q):
    if q not in _BY_WIDTH:
        raise HintFormatError(f"unsupported weight width {q}")
    return _BY_WIDTH[q]


def quantize_value(v, spec, what="value"):
    """Round to the nearest float32 (spec None, as the hint file holds it), or
    to the nearest multiple of 2^-F, ties away from zero, saturating. A value
    beyond the float32 range is a ValueError naming it as `what`."""
    if spec is None:
        try:
            return struct.unpack("<f", struct.pack("<f", v))[0]
        except OverflowError:
            raise ValueError(f"{what} {v!r} is beyond the float32 range") from None
    scale = 1 << spec.fraction_bits
    raw = math.floor(min(abs(v), 1 << spec.integer_bits) * scale + 0.5)  # |v| * scale may be inf
    return max(spec.min_value, min(spec.max_value, (-raw if v < 0 else raw) / scale))


def quantize(model, spec):
    """Quantize bias and weights (spec None: to float32); weights rounding to zero drop out."""
    weights = {}
    for j, v in model.weights.items():
        qv = quantize_value(v, spec, f"model {model.pc}: weight {j}")
        if qv != 0.0:
            weights[j] = qv
    bias = quantize_value(model.bias, spec, f"model {model.pc}: bias")
    return replace(model, bias=bias, weights=weights)


def dedup(dataset, lasso_model, config):
    """Collapse duplicated history columns via an ElasticNet refit.

    Refits at the input model's lambda with alpha < 1 (0.5 unless the config
    already mixes), groups the refit's non-zero indices by identical feature
    columns, and moves each group's summed weight onto its smallest index.
    Rejected (input returned unchanged) if accuracy drops more than 0.001
    below the input model's. The result keeps the input's `sufficient` flag:
    the refit is not searched, so it cannot tell.
    """
    alpha = config.elasticnet_alpha if config.elasticnet_alpha < 1.0 else 0.5
    en = fit(dataset, lasso_model.lam, alpha, config)
    groups = {}
    for j in sorted(en.weights):
        groups.setdefault(dataset.first[j], []).append(j)
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


@dataclass(frozen=True)
class SlbiuConfig:
    lh: int
    gh: int
    n: int  # max hints (N)
    nnz: int  # max non-zero weights per hint
    q: int  # weight bit-width
    p: int = PC_BITS  # branch PC bit-width; the fields are in the hint file header's order


def index_bits(lh, gh):
    """ceil(log2(lh+gh)) history-index width."""
    total = lh + gh
    return (total - 1).bit_length() if total > 1 else 0


def slot_widths(config):
    """The bit widths of one CAM slot's fields, in payload order: pc, intercept,
    nnz (history index, weight) pairs, and the lh-bit LHR image that the
    runtime reserves. The codec and the storage accounting both read it."""
    pair = [index_bits(config.lh, config.gh), config.q]
    return [config.p, config.q] + pair * config.nnz + [config.lh]


def storage_bits(config):
    """Total CAM bits: N * (p + q + nnz*q + nnz*ceil(log2(lh+gh)) + lh)."""
    return config.n * sum(slot_widths(config))


@dataclass
class SparsityHint:
    pc: int
    intercept: float
    entries: list  # [(history index, weight)], strictly increasing, weights non-zero
    qspec: QuantSpec | None = None  # None = float32 weights

    def __post_init__(self):
        idxs = [j for j, _ in self.entries]
        if idxs != sorted(set(idxs)):
            raise ValueError("hint entry indices must be strictly increasing")
        if any(wv == 0.0 for _, wv in self.entries):
            raise ValueError("hint entries must have non-zero weights")

    @property
    def nnz(self):
        return len(self.entries)


def hint_from_model(model, qspec):
    entries = [(j, model.weights[j]) for j in sorted(model.weights)]
    return SparsityHint(model.pc, model.bias, entries, qspec)


@dataclass
class HintSet:
    phase_id: str
    config: SlbiuConfig
    hints: list

    def __post_init__(self):
        if len(self.hints) > self.config.n:
            raise ValueError(f"{len(self.hints)} hints exceed capacity N={self.config.n}")
        pcs = [h.pc for h in self.hints]
        if len(set(pcs)) != len(pcs):
            raise ValueError("hint PCs must be distinct")
        width = self.config.lh + self.config.gh
        for h in self.hints:
            if h.nnz > self.config.nnz:
                raise ValueError("hint exceeds the nnz cap")
            if h.entries and not 0 <= h.entries[0][0] <= h.entries[-1][0] < width:
                raise ValueError(f"hint for pc {h.pc:#x} has an entry index outside [0, {width})")


def empty_hintset(lh, gh, q, p=PC_BITS, phase_id=""):
    return HintSet(phase_id, SlbiuConfig(lh=lh, gh=gh, n=0, nnz=0, q=q, p=p), [])


@dataclass
class ScoredCandidate:
    model: object  # SparseModel, compressed
    offline_correct: int
    primary_correct: int


def score(candidate, policy):
    """independent: offline correct count, accuracy >= 0.99 required; relative:
    offline minus primary correct count. None marks an a-priori drop."""
    if policy == "independent":
        if candidate.model.accuracy < 0.99:
            return None
        return candidate.offline_correct
    if policy == "relative":
        return candidate.offline_correct - candidate.primary_correct
    raise ValueError(f"unknown policy {policy!r}")


def select(candidates, policy, budget_bits, p, q, lh, gh, phase_id=""):
    """Grid-search (N, nnz) pairs within budget and keep the best-scoring set.

    For each nnz cap from 1 to the max candidate nnz, N is the largest count
    fitting the budget, at most U16_MAX (the hint file's N field). Candidates
    scoring <= 0 (no benefit) or exceeding the cap are discarded; the rest
    rank by score desc (ties: smaller nnz, then smaller pc). The pair with
    the highest score sum wins (tie: larger N).
    """
    if budget_bits <= 0:
        raise ValueError("budget_bits must be positive")
    scored = []
    for c in candidates:
        s = score(c, policy)
        if s is not None and s > 0:
            scored.append((s, c))
    best = None  # (total_score, n, nnz_cap, chosen)
    max_nnz = max((c.model.nnz for _, c in scored), default=0)
    for cap in range(1, max_nnz + 1):
        slot = storage_bits(SlbiuConfig(lh=lh, gh=gh, n=1, nnz=cap, q=q, p=p))
        n = min(budget_bits // slot, U16_MAX)
        if n == 0:
            continue
        pool = [(s, c) for s, c in scored if c.model.nnz <= cap]
        if not pool:
            continue
        pool.sort(key=lambda sc: (-sc[0], sc[1].model.nnz, sc[1].model.pc))
        chosen = pool[:n]
        total = sum(s for s, _ in chosen)
        key = (total, n)
        if best is None or key > (best[0], best[1]):
            best = (total, n, cap, chosen)
    if best is None:
        return empty_hintset(lh, gh, q, p, phase_id), (0, 0)
    total, n, cap, chosen = best
    qspec = _spec_for_width(q)
    config = SlbiuConfig(lh=lh, gh=gh, n=n, nnz=cap, q=q, p=p)
    hints = [hint_from_model(c.model, qspec) for _, c in chosen]
    hs = HintSet(phase_id, config, hints)
    assert storage_bits(config) <= budget_bits
    return hs, (n, cap)


def _weight_to_bits(v, qspec):
    if qspec is None:
        return struct.unpack("<I", struct.pack("<f", v))[0]
    return round(v * (1 << qspec.fraction_bits))  # exact: v is a fixed-point multiple


def _weight_from_bits(bits, q, qspec):
    if qspec is None:
        return struct.unpack("<f", struct.pack("<I", bits))[0]
    if bits >= 1 << (q - 1):  # two's complement
        bits -= 1 << q
    return bits / (1 << qspec.fraction_bits)


def _slot_bits(h, nnz, qspec, widths):
    """A hint's slot as binary digits: its fields in `slot_widths` order, each
    cut to its width, zero pairs up to the nnz cap and a zero LHR image."""
    values = [h.pc, _weight_to_bits(h.intercept, qspec)]
    for j, wv in h.entries:
        values += [j, _weight_to_bits(wv, qspec)]
    values += [0, 0] * (nnz - h.nnz) + [0]
    # the leading 1 keeps each field's leading zeros, and gives "" for width 0
    return "".join(format(v & ((1 << w) - 1) | 1 << w, "b")[1:] for v, w in zip(values, widths))


def encode_hintset(hs, path):
    """Write the hint file. The payload is storage_bits(config) bits: the
    hints' slots, then the empty CAM slots and the byte padding as zeros."""
    cfg = hs.config
    qspec = _spec_for_width(cfg.q)
    phase = hs.phase_id.encode("utf-8")
    for name, value in {"phase id bytes": len(phase), **asdict(cfg)}.items():
        if not 0 <= value <= U16_MAX:
            raise HintFormatError(f"{name} {value} does not fit the hint file's u16 field")
    payload_bits = storage_bits(cfg)
    if payload_bits > 0xFFFF_FFFF:
        raise HintFormatError(f"payload of {payload_bits} bits does not fit the hint file's u32")
    widths = slot_widths(cfg)
    bits = "".join(_slot_bits(h, cfg.nnz, qspec, widths) for h in hs.hints)
    pad = payload_bits - len(bits) + -payload_bits % 8  # empty slots, then to a whole byte
    payload = (int(bits or "0", 2) << pad).to_bytes((payload_bits + 7) // 8, "big")
    header = HINT_MAGIC + struct.pack("<HHH", HINT_VERSION, len(hs.hints), len(phase))
    header += phase + struct.pack("<6HI", *astuple(cfg), payload_bits)
    with open(path, "wb") as f:
        f.write(header + payload)


def decode_hintset(path):
    with open(path, "rb") as f:
        data = f.read()

    def take(size, what):
        nonlocal off
        if off + size > len(data):
            raise HintFormatError(f"{path}: truncated {what} at byte offset {off}")
        off += size
        return data[off - size : off]

    if data[:4] != HINT_MAGIC:
        raise HintFormatError(f"{path}: bad magic {data[:4]!r}")
    off = 4
    version, n_hints, phase_len = struct.unpack("<HHH", take(6, "header"))
    if version != HINT_VERSION:
        raise HintFormatError(f"{path}: unsupported version {version}")
    try:
        phase_id = take(phase_len, "phase id").decode("utf-8")
    except UnicodeDecodeError as e:
        raise HintFormatError(f"{path}: phase id is not UTF-8 ({e.reason})") from None
    cfg = SlbiuConfig(*struct.unpack("<6H", take(12, "config")))
    (payload_bits,) = struct.unpack("<I", take(4, "payload size"))
    if n_hints > cfg.n:  # the slots past N would read as zeros
        raise HintFormatError(f"{path}: {n_hints} hints exceed capacity N={cfg.n}")
    if payload_bits != (need := storage_bits(cfg)):
        raise HintFormatError(f"{path}: payload is {payload_bits} bits, config requires {need}")
    payload = data[off:]
    if len(payload) != (payload_bits + 7) // 8:
        raise HintFormatError(f"{path}: payload size mismatch")
    qspec = _spec_for_width(cfg.q)
    bits = format(int.from_bytes(payload, "big"), f"0{8 * len(payload)}b")
    bounds = list(itertools.accumulate(slot_widths(cfg), initial=0))
    fields, size = list(zip(bounds, bounds[1:])), bounds[-1]
    hints = []
    try:  # the field widths admit hints that a HintSet rejects
        for base in range(0, n_hints * size, size):
            slot = bits[base : base + size]
            pc, *raw, _lhr = [int(slot[a:b] or "0", 2) for a, b in fields]  # "": a 0-bit field
            weights = [_weight_from_bits(r, cfg.q, qspec) for r in raw[::2]]  # intercept first
            entries = [(j, wv) for j, wv in zip(raw[1::2], weights[1:]) if wv != 0.0]
            hints.append(SparsityHint(pc, weights[0], entries, qspec))
        return HintSet(phase_id, cfg, hints)
    except ValueError as e:
        raise HintFormatError(f"{path}: {e}") from None
