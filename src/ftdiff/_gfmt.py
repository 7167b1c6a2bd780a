"""``'%.<p>g' % v`` over float columns in numpy, byte-identical to Python's.

Digits from a double-double product |x|·10^(p−1−k) (Dekker 1971, "A
floating-point technique for extending the available precision"), laid out
column-major in 4-byte words with NUL bytes that the join drops. Zero,
non-finite, subnormal and extreme values, near-ties and a ``log10`` off by
one take Python's own format.
"""
from __future__ import annotations

import functools
import itertools
from typing import Sequence

import numpy as np

# keeps the Dekker splits normal and finite, 10^(p-1-k) in the table (5 <= p <= 17)
_FAST_MIN, _FAST_MAX = 2.0 ** -900, 2.0 ** 990
_SPLIT = 134217729.0  # 2^27 + 1
_CHUNK = 4096  # rows formatted at a time, so the temporaries stay in cache
_WORD = np.dtype("<u4")  # byte i of a word is its i-th least significant byte


@functools.lru_cache(maxsize=None)
def _tables() -> tuple[np.ndarray, np.ndarray]:
    """10^j for j in [-300, 300] as (hi, its Dekker halves, lo), hi + lo
    good to ~2^-106; ASCII of 0000..9999 as words, then with trailing zeros NUL."""
    pow10 = []
    for j in range(-300, 301):
        num, den = (10 ** j, 1) if j >= 0 else (1, 10 ** -j)
        hi = num / den  # int true division is correctly rounded
        a, b = hi.as_integer_ratio()
        c = _SPLIT * hi
        half = c - (c - hi)
        pow10.append((hi, half, hi - half, (num * b - a * den) / (den * b)))
    i = np.arange(10000)[:, None]
    text = (i // 10 ** np.arange(3, -1, -1) % 10 + ord("0")).astype(np.uint8)
    stripped = np.where(i % 10 ** np.arange(4, 0, -1) == 0, 0, text).astype(np.uint8)
    return np.array(pow10), np.concatenate([text, stripped]).view(_WORD).ravel()


@functools.lru_cache(maxsize=None)
def _layouts(p: int) -> tuple[np.ndarray, np.ndarray]:
    """Per class sign * (p + 8) + layout, as columns: the template's words,
    integer-digit masks, exponent mask and dot; the mask of the digit
    bytes. Layouts are fixed notation for k = -4..p-1, then exponent
    notation by (k < 0, |k| >= 100). A template is sign and "0.000"; the
    digits, the fraction one byte further right; 'e', sign and exponent."""
    pad = -p % 4
    size = 4 * ((p + 3) // 4 + 4)
    rows = []
    for sign, layout in itertools.product(b"\0-", range(p + 8)):
        exp = layout >= p + 4
        k = 0 if exp else layout - 4
        const, dot = bytearray(size), bytearray(size - 16)
        const[0] = sign
        if k < 0:
            const[1:2 - k] = b"0." + b"0" * (-k - 1)
        elif k < p - 1:
            dot[1 + pad + k] = ord(".")
        if exp:
            const[size - 7:size - 5] = b"e-" if layout >= p + 6 else b"e+"
        n_exp = (3 if layout in (p + 5, p + 7) else 2) if exp else 0
        rows.append(bytes(const) + bytes(pad) + bytes(255 * (i <= k) for i in range(p))
                    + bytes(3 - n_exp) + b"\xff" * n_exp + bytes(1) + dot)
    table = np.frombuffer(b"".join(rows), _WORD).reshape(len(rows), -1)
    return np.ascontiguousarray(table.T), np.frombuffer(bytes(pad) + b"\xff" * p, _WORD)[:, None]


def _format_g(out: np.ndarray, x: np.ndarray, p: int) -> None:
    """Write ``'%.<p>g' % v`` of each x into the columns of out, with NUL bytes
    anywhere and the last byte of each column left NUL."""
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)  # false for zero, nan and inf
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    pow10, words = _tables()
    th, bh, bl, tl = pow10.take(p - 1 + 300 - k, axis=0).T
    # a*th = prod + err exactly (Dekker); a*tl adds the table's low part
    prod = a * th
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    tail = (((ah * bh - prod) + ah * bl + al * bh) + al * bl) + a * tl
    whole = np.rint(prod)
    frac = (prod - whole) + tail
    step = np.rint(frac)
    digits = whole.astype(np.int64) + step.astype(np.int64)
    frac -= step
    # a log10 off by one leaves |x|*10^(p-1-k) outside [10^(p-1), 10^p)
    low_end = 10 ** (p - 1)
    slow = ~fast | (digits < low_end) | ((digits == low_end) & (frac < 0.0)) \
        | (digits >= 10 * low_end) | (np.abs(np.abs(frac) - 0.5) < 1e-6)
    # 4-digit groups; those followed by zero groups only take the trailing-NUL copy
    nw, ng = out.shape[0], out.shape[0] - 4
    below = 10 ** (4 * np.arange(ng - 1, -1, -1))[:, None]
    groups = digits // below % 10000
    stripped = groups + 10000 * (digits % below == 0)
    fixed = (k >= -4) & (k < p)
    layout = np.where(fixed, k + 4, p + 4 + 2 * (k < 0) + (np.abs(k) >= 100))
    cls = np.signbit(x) * (p + 8) + layout
    table, digit_bytes = _layouts(p)
    by_class = table.take(cls, axis=1)
    out[:] = by_class[:nw]
    ints = by_class[nw:nw + ng]
    fracs = words.take(stripped) & ~ints & digit_bytes
    out[2:2 + ng] |= (words.take(groups) & ints) | (fracs << 8)
    out[3:3 + ng] |= fracs >> 24
    out[-1] |= (words.take(np.abs(k)) >> 8) & by_class[nw + ng]
    out[2:2 + ng] |= by_class[-ng:] * fracs.any(axis=0)  # the dot, if digits follow it
    if slow.any():
        rows = np.flatnonzero(slow)
        bits, inv = np.unique(x[rows].view(np.int64), return_inverse=True)
        texts = b"".join(("%.*g" % (p, v)).encode().ljust(4 * nw, b"\0")
                         for v in bits.view(np.float64).tolist())
        out[:, rows] = np.frombuffer(texts, _WORD).reshape(-1, nw)[inv].T


def csv_text(header: str, columns: Sequence[np.ndarray], precisions: Sequence[int]) -> str:
    """The header line, then one line per row: each column as ``'%.<p>g'``, comma-joined."""
    offsets = np.cumsum([0] + [(p + 3) // 4 + 4 for p in precisions]).tolist()
    ends = b"," * (len(columns) - 1) + b"\n"
    raw = bytearray((header + "\n").encode())
    for start in range(0, columns[0].size, _CHUNK):
        block = [x[start:start + _CHUNK] for x in columns]
        text = np.empty((offsets[-1], block[0].size), _WORD)  # column-major
        for x, p, a, b, end in zip(block, precisions, offsets, offsets[1:], ends):
            _format_g(text[a:b], x, p)
            text[b - 1] |= np.uint32(end << 24)
        raw += text.T.tobytes().translate(None, b"\0")
    return raw.decode("ascii")
