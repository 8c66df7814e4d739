"""Field-by-field reference codec of the `.sbph` hint file.

One bit-stream write or read per field, shifting one growing int, and the
slot size as a closed form. `sbp.hints` lists a slot's field widths once and
packs or slices the whole payload at a time; this codec is the oracle the
tests compare it with.
"""

import struct
from dataclasses import replace

from sbp.errors import HintFormatError
from sbp.hints import (
    HINT_MAGIC,
    HINT_VERSION,
    HintSet,
    SlbiuConfig,
    SparsityHint,
    _spec_for_width,
    index_bits,
)


def storage_bits(config):
    """Total CAM bits: N * (p + q + nnz*q + nnz*ceil(log2(lh+gh)) + lh)."""
    return config.n * (
        config.p
        + config.q
        + config.nnz * config.q
        + config.nnz * index_bits(config.lh, config.gh)
        + config.lh
    )


class _BitWriter:
    def __init__(self):
        self.acc = 0
        self.nbits = 0

    def write(self, value, width):
        if width == 0:
            return
        self.acc = (self.acc << width) | (value & ((1 << width) - 1))
        self.nbits += width

    def to_bytes(self):
        pad = -self.nbits % 8
        return (self.acc << pad).to_bytes((self.nbits + pad) // 8, "big")


class _BitReader:
    def __init__(self, data, nbits):
        self.acc = int.from_bytes(data, "big")
        self.total = len(data) * 8
        self.pos = 0
        self.nbits = nbits

    def read(self, width):
        if width == 0:
            return 0
        if self.pos + width > self.nbits:
            raise HintFormatError("hint payload exhausted")
        v = (self.acc >> (self.total - self.pos - width)) & ((1 << width) - 1)
        self.pos += width
        return v


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


def encode_hintset(hs, path):
    """Write the hint file; the hint-array payload is exactly storage_bits(config)
    bits (N slots, absent/partial slots zero-padded, plus lh reserved LHR bits
    per slot)."""
    cfg = hs.config
    qspec = _spec_for_width(cfg.q)
    ib = index_bits(cfg.lh, cfg.gh)
    bw = _BitWriter()
    for h in hs.hints:
        bw.write(h.pc, cfg.p)
        bw.write(_weight_to_bits(h.intercept, qspec), cfg.q)
        for j, wv in h.entries:
            bw.write(j, ib)
            bw.write(_weight_to_bits(wv, qspec), cfg.q)
        for _ in range(cfg.nnz - h.nnz):  # zero padding up to the nnz cap
            bw.write(0, ib)
            bw.write(0, cfg.q)
        bw.write(0, cfg.lh)  # reserved runtime LHR image
    for _ in range(cfg.n - len(hs.hints)):  # empty CAM slots
        bw.write(0, storage_bits(replace(cfg, n=1)))
    assert bw.nbits == storage_bits(cfg)
    phase = hs.phase_id.encode("utf-8")
    if len(phase) > 0xFFFF:
        raise HintFormatError(f"phase id is {len(phase)} bytes, the hint file holds at most 65535")
    header = HINT_MAGIC + struct.pack("<HHH", HINT_VERSION, len(hs.hints), len(phase))
    header += phase
    header += struct.pack("<6H", cfg.lh, cfg.gh, cfg.n, cfg.nnz, cfg.q, cfg.p)
    header += struct.pack("<I", bw.nbits)
    with open(path, "wb") as f:
        f.write(header + bw.to_bytes())


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
    phase_id = take(phase_len, "phase id").decode("utf-8")
    lh, gh, n, nnz, q, p = struct.unpack("<6H", take(12, "config"))
    (payload_bits,) = struct.unpack("<I", take(4, "payload size"))
    cfg = SlbiuConfig(lh=lh, gh=gh, n=n, nnz=nnz, q=q, p=p)
    if payload_bits != storage_bits(cfg):
        raise HintFormatError(
            f"{path}: payload is {payload_bits} bits, config requires {storage_bits(cfg)}"
        )
    payload = data[off:]
    if len(payload) != (payload_bits + 7) // 8:
        raise HintFormatError(f"{path}: payload size mismatch")
    qspec = _spec_for_width(q)
    ib = index_bits(lh, gh)
    br = _BitReader(payload, payload_bits)
    slots = []  # (pc, intercept, entries) of each hint
    for _ in range(n_hints):
        pc = br.read(p)
        intercept = _weight_from_bits(br.read(q), q, qspec)
        entries = []
        for _ in range(nnz):
            j = br.read(ib)
            wv = _weight_from_bits(br.read(q), q, qspec)
            if wv != 0.0:
                entries.append((j, wv))
        br.read(lh)
        slots.append((pc, intercept, entries))
    try:  # the field widths admit hints that a HintSet rejects
        return HintSet(phase_id, cfg, [SparsityHint(*slot, qspec) for slot in slots])
    except ValueError as e:
        raise HintFormatError(f"{path}: {e}") from None
