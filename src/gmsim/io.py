"""Output sinks: JSONL snapshot streams, CSV time series, binary position
dumps, and experiment summaries named by config hash."""

from __future__ import annotations

import csv
import functools
import json
import os
import struct

import numpy as np

SNAPSHOT_MAGIC = b"GMPE"
SNAPSHOT_VERSION = 1
_HEADER = struct.Struct("<4sIQQd")  # magic, version, N, d, time -> 32 bytes

_CHUNK_FLOATS = 1 << 13  # floats read and rendered per write; bounds the writer's memory


def write_snapshot_jsonl(path, times, mean_sq: np.ndarray, positions: np.ndarray | None = None):
    """One JSON object per (observation time, run) of mean_sq shaped
    (n_obs, runs): time, run, its mean squared position, and the raw
    positions when positions, shaped (n_obs, runs, N, d), is given.  Each
    line holds the bytes `json.dumps` writes for the record, except that a
    non-finite float is null, so every line is strict JSON."""
    times = np.asarray(times, dtype=float)
    runs = mean_sq.shape[1]
    # a record is a row of its text with NUL-padded slots for its values,
    # and the NUL bytes are dropped before writing
    line = bytearray(b'{"time": ')
    at_time = len(line)
    line += bytes(_WIDTH) + b', "run": '
    at_run = len(line)
    run_width = len(str(runs - 1))
    line += bytes(run_width) + b', "observables": {"mean_sq": '
    at_mean_sq = len(line)
    line += bytes(_WIDTH) + b"}"
    if positions is not None:
        _, _, n, d = positions.shape
        line += b', "positions": ['
        at_pos = len(line)
        # one particle: "[" v0 ", " v1 ... "]" then ", " unless it is the last
        particle = b"[" + b", \0".join([bytes(_WIDTH)] * d) + b"], "
        line += particle * n
        line[-2:] = b"\0\0"
        line += b"]"
    line += b"}\n"
    template = np.tile(np.frombuffer(line, np.uint8), (runs, 1))
    template[:, at_run:at_run + run_width] = np.array(
        [str(r).encode() for r in range(runs)], f"S{run_width}").view(np.uint8).reshape(runs, -1)
    step = max(1, _CHUNK_FLOATS // (runs * (1 if positions is None else n * d + 1) + 1))
    with open(path, "wb") as fh:
        for a in range(0, len(times), step):
            t, m = times[a:a + step], mean_sq[a:a + step]
            k = len(t)
            x = [] if positions is None else positions[a:a + step].ravel()
            rows = _render(np.concatenate([t, m.ravel(), x]))
            text = bytearray(k * runs * len(line))
            rec = np.frombuffer(text, np.uint8).reshape(k, runs, len(line))
            rec[...] = template
            rec[:, :, at_time:at_time + _WIDTH] = rows[:k].reshape(k, 1, _WIDTH)
            rec[:, :, at_mean_sq:at_mean_sq + _WIDTH] = rows[k:k + k * runs].reshape(k, runs, _WIDTH)
            if positions is not None:
                cells = rec[:, :, at_pos:at_pos + n * len(particle)].reshape(k, runs, n, -1)
                slots = cells[..., 1:].reshape(k, runs, n, d, _WIDTH + 3)[..., :_WIDTH]
                slots[...] = rows[k + k * runs:].reshape(slots.shape)
            fh.write(text.translate(None, b"\0"))


# Float formatting.  `repr` (and so `json.dumps`) writes a finite float as
# the shortest decimal that reads back as the same float, the closest to it
# when several are that short.  `_shortest` finds those digits with the
# integer arithmetic of Giulietti's Schubfach ("The Schubfach way to render
# doubles", 2020) on whole uint64 arrays, building 128- and 192-bit products
# from 32-bit halves; `_render` lays them out the way `repr` does, eight
# bytes at a time.  Every uint64 operand is an explicit np.uint64, so that
# numpy's casting rules cannot turn the arithmetic into float64.

_WIDTH = 48  # bytes per float: sign, "0.000", 17 digits each with a "." slot, "e+308"
_LO32, _U32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_ONE, _TWO, _TEN = np.uint64(1), np.uint64(2), np.uint64(10)
_K_MIN, _K_MAX = -292, 324  # the powers of ten that float64's binary exponents need
_POINT_MIN, _POINT_MAX = -323, 309  # 5e-324 = 0.5 10^-323 ... 1.8e308 = 0.18 10^309
_POW10 = np.array([10 ** i for i in range(18)], np.uint64)
_NULL = np.frombuffer(b"null".ljust(_WIDTH, b"\0"), "<u8")


def _word(text: str) -> int:
    return int.from_bytes(text.encode(), "little")


@functools.cache
def _tables():
    """The kernel's tables, built on first use (about 1 ms).
    - g_hi, g_lo, flog2: for K in [_K_MIN, _K_MAX], the uint64 halves of
      g = ceil(10^K 2^(127 - F)) with F = floor(log2 10^K), so that
      2^127 <= g < 2^128, and F;
    - digits4: for v < 10^4, v's four digits in the even bytes of a word;
    - last_digit: for digit word w and v < 10^4, the index of the last
      nonzero digit of d1..d17 when v is d(4w+2)..d(4w+5), 0 when v is 0;
    - head, tail: by decimal point p (x = 0.d1d2.. 10^p), the word before
      the first digit ("0.000" slots) and the one after the digits
      ("e-05"), each zero where `repr` writes neither;
    - keep_words, dot_words: for digit word w, the mask of its digits among
      the first n, and its "." when the first b digits precede it."""
    hi, lo, flog2 = [], [], []
    for k in range(_K_MIN, _K_MAX + 1):
        p = 10 ** abs(k)
        f = p.bit_length() - 1 if k >= 0 else -p.bit_length()
        num, den = (p, 1) if k >= 0 else (1, p)
        num, den = (num << 127 - f, den) if f <= 127 else (num, den << f - 127)
        g = -(-num // den)
        hi.append(g >> 64)
        lo.append(g & 0xFFFFFFFFFFFFFFFF)
        flog2.append(f)
    v = np.arange(10 ** 4, dtype=np.uint64)
    digits4 = sum((v // np.uint64(10 ** (3 - i)) % _TEN + np.uint64(48)) << np.uint64(16 * i)
                  for i in range(4))
    zeros = sum((v % np.uint64(10 ** t) == 0).astype(np.int64) for t in range(1, 5))
    last_digit = np.where(v > 0, np.arange(4)[:, None] * 4 + 4 - zeros, 0).astype(np.int8)
    head, tail = [], []
    for p in range(_POINT_MIN, _POINT_MAX + 1):
        positional = -4 < p <= 16
        head.append(_word("\0" + "0." + "0" * -p) if positional and p <= 0 else 0)
        tail.append(0 if positional else _word(f"e{p - 1:+03d}"))
    # digit word w holds d(4w+2)..d(4w+5), each followed by a "." slot
    keep_words = [[sum(0xFF << 16 * i for i in range(min(max(n - 4 * w - 1, 0), 4)))
                   for n in range(18)] for w in range(4)]
    dot_words = [[46 << 16 * (b - 4 * w - 2) + 8 if 0 <= b - 4 * w - 2 < 4 else 0
                  for b in range(17)] for w in range(4)]
    return (np.array(hi, np.uint64), np.array(lo, np.uint64), np.array(flog2, np.int64),
            digits4, last_digit, np.array(head, np.uint64), np.array(tail, np.uint64),
            np.array(keep_words, np.uint64), np.array(dot_words, np.uint64))


def _mul(a, b):
    """The high and low uint64 halves of the 128-bit products a b."""
    a0, a1 = a & _LO32, a >> _U32
    b0, b1 = b & _LO32, b >> _U32
    lo = a0 * b0
    a0 *= b1  # a0 b1
    b1 *= a1  # a1 b1, the high half's base
    a1 *= b0  # a1 b0
    mid = (lo >> _U32) + (a0 & _LO32) + (a1 & _LO32)
    lo &= _LO32
    lo |= mid << _U32
    b1 += a0 >> _U32
    b1 += a1 >> _U32
    b1 += mid >> _U32
    return b1, lo


def _shifted(g_hi, g_lo, s):
    """The three limbs, low first, of g << s for shifts s in [1, 63]."""
    return g_lo << s, (g_hi << s) | (g_lo >> (np.uint64(64) - s)), g_hi >> (np.uint64(64) - s)


def _round_to_odd(p2, p1):
    """floor(P / 2^128) for P = p2 2^128 + p1 2^64 + p0, its last bit set
    when p1 > 1: the method's rounding to odd, which the table's rounding up
    allows for."""
    return p2 | (p1 > _ONE)


def _scaled(c, q, k, irregular):
    """(vb, lower, upper): 4 x 10^-k for x = c 2^q, and the ends of x's
    rounding interval on the same scale, each rounded to odd."""
    g_hi, g_lo, flog2 = _tables()[:3]
    i = -k - _K_MIN
    g_hi, g_lo, h = g_hi.take(i), g_lo.take(i), (q + flog2.take(i) + 1).astype(np.uint64)
    # P = g 4c 2^h is 4 x 10^-k scaled by 2^128, in three limbs p2 p1 p0.
    # The ends put 4c + 2 and 4c - 2 (4c - 1 when irregular) in place of
    # 4c, so they are P plus or minus L, g shifted left by h + 1 (or h).
    cp = c << (h + _TWO)
    p1, p0 = _mul(g_lo, cp)
    p2, lo = _mul(g_hi, cp)
    p1 += lo
    p2 += p1 < lo
    h += _ONE
    l0, l1, l2 = _shifted(g_hi, g_lo, h)  # P + L
    l0 += p0
    low_carry = l0 < p0
    l1 += p1
    carry = l1 < p1
    l1 += low_carry
    carry |= l1 < low_carry
    upper = _round_to_odd(l2 + p2 + carry, l1)
    l0, l1, l2 = _shifted(g_hi, g_lo, h - irregular)  # P - L
    low_borrow = p0 < l0
    borrow = p1 < l1
    np.subtract(p1, l1, out=l1)
    borrow |= l1 < low_borrow
    l1 -= low_borrow
    lower = _round_to_odd(p2 - l2 - borrow, l1)
    return _round_to_odd(p2, p1), lower, upper


def _decode(x):
    """(c, q, irregular) with |x| = c 2^q for finite nonzero float64 x, and
    whether the float below |x| is half as far as the one above."""
    bits = np.abs(x).view(np.uint64)
    biased = (bits >> np.uint64(52)).astype(np.int64)
    c = bits & np.uint64((1 << 52) - 1)
    irregular = (c == 0) & (biased > 1)
    c |= (biased > 0).astype(np.uint64) << np.uint64(52)
    return c, np.maximum(biased, 1) - 1075, irregular


def _shortest(c, q, irregular):
    """(digits, exponent) with digits 10^exponent the shortest decimal that
    rounds to c 2^q, the closest to it when several are that short (ties to
    an even last digit).  digits may end in zeros and has at most 17
    digits."""
    k = (q * 1262611 - irregular * 524031) >> 22  # floor(log10 of 2^q, or of 3/4 2^q)
    vb, lower, upper = _scaled(c, q, k, irregular)
    # an end of the interval counts as inside it exactly when c is even
    odd = c & _ONE
    lower += odd
    upper -= odd
    # one digit fewer when exactly one of its two candidates is inside
    s = vb >> _TWO
    sp = s // _TEN
    up_in = lower <= sp * np.uint64(40)
    wp_in = sp * np.uint64(40) + np.uint64(40) <= upper
    shorter = (s >= _TEN) & (up_in != wp_in)
    # otherwise s or s + 1: the one inside, or else the closer to x
    u_in = lower <= s << _TWO
    w_in = (s << _TWO) + np.uint64(4) <= upper
    mid = (s << _TWO) + _TWO
    up = (vb > mid) | ((vb == mid) & ((s & _ONE) == _ONE))
    digits = np.where(shorter, sp + wp_in, s + np.where(u_in != w_in, w_in, up))
    return digits, k + shorter


def _render(x):
    """(x.size, _WIDTH) uint8 rows: the bytes `repr` writes for each
    float64 of x, NUL-padded, and null for a non-finite one.  `repr`
    writes the digits d1..dn of x = 0.d1..dn 10^p in positional form when
    -4 < p <= 16 ("0.0001", "123.0", "1000000000000000.0") and otherwise
    as d1.d2..dn e-XX or e+XX ("1e-05", "1e+16")."""
    x = np.asarray(x, dtype=float).reshape(-1)
    finite = np.isfinite(x)
    zero = x == 0
    digits, exp10 = _shortest(*_decode(np.where(finite & ~zero, x, 1.0)))
    digits4, last_digit, head, tail, keep_words, dot_words = _tables()[3:]
    n_digits = np.searchsorted(_POW10, digits, side="right")
    p = np.where(zero, 1, n_digits + exp10)
    # d1 and four groups of four digits d2..d17; numpy divides uint64 by a
    # scalar fast, but not % or divmod
    d = np.where(zero, np.uint64(0), digits * _POW10.take(17 - n_digits))
    first = d // np.uint64(10 ** 16)
    d -= first * np.uint64(10 ** 16)
    groups = []
    for scale in (np.uint64(10 ** 12), np.uint64(10 ** 8), np.uint64(10 ** 4)):
        group = d // scale
        d -= group * scale
        groups.append(group.astype(np.intp))
    groups.append(d.astype(np.intp))
    n_sig = 1 + np.max([last_digit[w].take(group) for w, group in enumerate(groups)], axis=0)
    positional = (p > -4) & (p <= 16)
    # digits written: positional form keeps the integer part's zeros and
    # one fraction digit; and the digits before the ".", 0 when none is
    keep = np.where(positional & (p > 0), np.maximum(n_sig, p + 1), n_sig)
    before = np.where(positional, np.maximum(p, 0), n_sig > 1)
    p -= _POINT_MIN
    rows = np.empty((len(x), _WIDTH // 8), "<u8")
    rows[:, 0] = (head.take(p) | np.signbit(x) * np.uint64(45) | (first + np.uint64(48)) << np.uint64(48)
                  | (before == 1) * np.uint64(46 << 56))
    for w, group in enumerate(groups):
        rows[:, w + 1] = digits4.take(group) & keep_words[w].take(keep) | dot_words[w].take(before)
    rows[:, 5] = tail.take(p)
    rows[~finite] = _NULL
    return rows.view(np.uint8)


def write_positions_bin(path, positions: np.ndarray, time: float):
    """Little-endian float64 row-major N x d block behind a 32-byte header."""
    x = np.ascontiguousarray(positions, dtype="<f8")
    n, d = x.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, n, d, float(time)))
        fh.write(x.tobytes())


def read_positions_bin(path):
    with open(path, "rb") as fh:
        magic, version, n, d, time = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != SNAPSHOT_MAGIC:
            raise ValueError(f"bad magic {magic!r} in {path}")
        if version != SNAPSHOT_VERSION:
            raise ValueError(f"unsupported snapshot version {version}")
        x = np.frombuffer(fh.read(n * d * 8), dtype="<f8").reshape(n, d)
    return x, time


def write_series_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def experiment_paths(out_dir, experiment: str, cfg_hash: str):
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, f"{experiment}-{cfg_hash}")
    return base + ".json", base + ".csv"


def write_summary(path, summary: dict):
    """Strict JSON: numpy values become plain ones and a non-finite float,
    such as an undefined fit, becomes null."""
    with open(path, "w") as fh:
        json.dump(_plain(summary), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj
