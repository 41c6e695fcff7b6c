"""Asymmetric-numeral-system coders.

Two layers:

* Two-symbol closed-form coder.  The state x accumulates information; the
  decode split sends x to (s, x_s) with

      ceiling variant:  s = ceil((x+1) q) - ceil(x q)
                        x_1 = ceil(x q),  x_0 = x - ceil(x q)
      floor variant:    s = floor((x+1) q) - floor(x q)
                        x_1 = floor(x q), x_0 = x - floor(x q)

  and the encode step is the inverse C(s, x_s).  All arithmetic is exact
  rational (q given as a Fraction or numerator/denominator pair).

* Tabled multi-symbol coder over the state interval I = {l, ..., b l - 1}.
  The decode table is filled either by a keyed shuffle (a pool holding
  (b-1) l_s copies of each symbol is consumed by the pinned splitmix64
  stream: i = rng.randbelow(m); s = pool[i]; pool[i] = pool[m-1]; m -= 1)
  or by the deterministic rule that places symbol s at the states where
  ceil(x R_s) - ceil(x R_{s+1}) increments, R_s being the suffix sum
  q_s + ... + q_{n-1}.  For two symbols the deterministic rule reproduces
  the ceiling-variant closed form exactly.

Stream coding renormalizes the state into I with base-b digit moves.  The
encoder walks its input back to front so the decoder emits symbols in
natural order; the emitted digit sequence is returned already reversed
into decoder order, which makes decoding a single forward pass.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from .rng import SplitMix64


class DegenerateSymbol(ValueError):
    pass


class CorruptStream(ValueError):
    pass


class CapacityExceeded(RuntimeError):
    """Payload does not fit; carries the achieved and requested bit counts."""

    def __init__(self, achieved_bits: int, requested_bits: int):
        self.achieved_bits = achieved_bits
        self.requested_bits = requested_bits
        super().__init__("lattice holds only %d of %d payload bits"
                         % (achieved_bits, requested_bits))


@dataclass(frozen=True)
class ErrorDetected:
    """Corruption flag raised by the forbidden-symbol mechanism."""

    position: int


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _as_ratio(q) -> tuple[int, int]:
    f = Fraction(q)
    return f.numerator, f.denominator


def abs_decode_step(x: int, q, variant: str = "ceiling") -> tuple[int, int]:
    """Split state x into (symbol, reduced state)."""
    if x < 0:
        raise ValueError("state must be nonnegative")
    num, den = _as_ratio(q)
    if not 0 < num < den:
        raise ValueError("q must be strictly between 0 and 1")
    if variant == "ceiling":
        x1 = _ceil_div(x * num, den)
        s = _ceil_div((x + 1) * num, den) - x1
    elif variant == "floor":
        x1 = (x * num) // den
        s = ((x + 1) * num) // den - x1
    else:
        raise ValueError("unknown variant %r" % variant)
    return (1, x1) if s else (0, x - x1)


def abs_encode_step(s: int, xs: int, q, variant: str = "ceiling") -> int:
    """Inverse of abs_decode_step: merge symbol s into reduced state xs."""
    if xs < 0:
        raise ValueError("state must be nonnegative")
    num, den = _as_ratio(q)
    if not 0 < num < den:
        raise ValueError("q must be strictly between 0 and 1")
    if variant == "ceiling":
        if s:
            return (xs * den) // num
        return _ceil_div((xs + 1) * den, den - num) - 1
    if variant == "floor":
        if s:
            return _ceil_div((xs + 1) * den, num) - 1
        return (xs * den) // (den - num)
    raise ValueError("unknown variant %r" % variant)


def largest_remainder(l: int, qs: Sequence[float]) -> list[int]:
    """Apportion l state slots to probabilities; ties broken by symbol index.
    A probability that rounds to zero slots is DegenerateSymbol."""
    fr = [Fraction(q) for q in qs]
    total = sum(fr)
    if total <= 0:
        raise ValueError("probabilities must be positive")
    fr = [f / total for f in fr]
    base = [int(f * l) for f in fr]
    rem = l - sum(base)
    order = sorted(range(len(fr)), key=lambda s: (-(fr[s] * l - base[s]), s))
    out = list(base)
    for s in order[:rem]:
        out[s] += 1
    if 0 in out:
        raise DegenerateSymbol("a probability rounded to zero slots; increase l")
    return out


class AnsTable:
    """Decode/encode tables over I = {l, ..., b l - 1}."""

    def __init__(self, l: int, b: int, l_s: Sequence[int], dec_sym: Sequence[int], key: int = 0):
        self.l = l
        self.b = b
        self.l_s = list(l_s)
        self.n = len(self.l_s)
        self.key = key
        if sum(self.l_s) != l:
            raise ValueError("l_s must sum to l")
        if any(v <= 0 for v in self.l_s):
            raise DegenerateSymbol("every symbol needs at least one slot")
        if len(dec_sym) != (b - 1) * l:
            raise ValueError("decode column has wrong length")
        self.dec_sym = list(dec_sym)
        sym = np.asarray(self.dec_sym, dtype=np.int64)
        if len(sym) and not 0 <= sym.min() <= sym.max() < self.n:
            raise ValueError("decode column holds a symbol outside 0..%d" % (self.n - 1))
        span = (b - 1) * np.asarray(self.l_s, dtype=np.int64)
        held = np.bincount(sym, minlength=self.n)
        bad = np.flatnonzero(held != span)
        if len(bad):
            s = int(bad[0])
            raise ValueError("symbol %d occupies %d slots, expected %d" % (s, held[s], span[s]))
        # the slots of each symbol in state order; its k-th slot holds the
        # reduced state l_s + k
        slots = np.argsort(sym, kind="stable")
        start = np.cumsum(span) - span
        xs = np.empty_like(slots)
        xs[slots] = np.arange(len(slots)) - np.repeat(start - self.l_s, span)
        self.dec_xs = xs.tolist()
        self.enc = [(l + slots[a:a + k]).tolist()
                    for a, k in zip(start.tolist(), span.tolist())]

    def decode_step(self, x: int) -> tuple[int, int]:
        i = x - self.l
        return self.dec_sym[i], self.dec_xs[i]

    def encode_step(self, s: int, xs: int) -> int:
        return self.enc[s][xs - self.l_s[s]]


# keyed-shuffle draws taken from the generator per block
_SHUFFLE_CHUNK = 1 << 16


def ans_build_table(qs: Sequence[float], l: int, b: int = 2, key: int = 0) -> AnsTable:
    """Keyed pseudo-random table over the largest-remainder slot counts of
    the probabilities qs (`_keyed_table`)."""
    return _keyed_table(largest_remainder(l, qs), l, b, key)


def _keyed_table(l_s: Sequence[int], l: int, b: int, key: int) -> AnsTable:
    """Keyed pseudo-random table: pool of (b-1) l_s copies per symbol,
    consumed by the pinned splitmix64 stream in state order x = l .. bl-1."""
    pool: list[int] = []
    for s, ls in enumerate(l_s):
        pool.extend([s] * ((b - 1) * ls))
    rng = SplitMix64(key)
    m = len(pool)
    dec_sym = []
    while m:
        # up to _SHUFFLE_CHUNK draws at once, each reduced modulo the pool
        # size at its turn
        k = min(m, _SHUFFLE_CHUNK)
        picks = rng.block(k) % np.arange(m, m - k, -1, dtype=np.uint64)
        for i in picks.tolist():
            dec_sym.append(pool[i])
            m -= 1
            pool[i] = pool[m]
    return AnsTable(l, b, l_s, dec_sym, key)


def ans_build_table_precise(qs: Sequence[float], l: int, b: int = 2) -> AnsTable:
    """Deterministic table built from chained two-way ceiling splits.

    With suffix slot counts R_s = l_s + ... + l_{n-1}, state x is classified
    by asking "symbol >= s+1?" at the conditional ratio R_{s+1}/R_s: the
    answer is yes when ceil((v+1) R_{s+1} / R_s) > ceil(v R_{s+1} / R_s),
    in which case v moves to that ceiling and the chain continues.  Each
    split is the exact two-symbol ceiling-variant bijection, so every
    symbol receives exactly (b-1) l_s states and the single-split case
    reproduces abs_decode_step."""
    l_s = largest_remainder(l, qs)
    n = len(l_s)
    suffix = [0] * (n + 1)
    for s in range(n - 1, -1, -1):
        suffix[s] = suffix[s + 1] + l_s[s]

    def symbol_at(x):
        v, den = x, l
        for s in range(n - 1):
            num = suffix[s + 1]
            if num == 0:
                return s
            v1 = _ceil_div(v * num, den)
            if _ceil_div((v + 1) * num, den) == v1:
                return s
            v, den = v1, num
        return n - 1

    dec_sym = [symbol_at(x) for x in range(l, b * l)]
    return AnsTable(l, b, l_s, dec_sym, key=0)


class StreamState:
    """Incremental coder state: x in I plus the digit buffer.

    Encoding pushes symbols in reverse message order, stacking fresh digits
    at the front (LIFO); decoding pops symbols in message order, consuming
    the buffer front (FIFO).  ans_stream_encode / ans_stream_decode are the
    batch equivalents."""

    def __init__(self, table: AnsTable, x: Optional[int] = None, digits: Iterable[int] = ()):
        self.table = table
        self.x = table.l if x is None else x
        if not table.l <= self.x < table.b * table.l:
            raise ValueError("state outside the coding interval")
        self.digits = deque(digits)

    def push(self, s: int) -> None:
        t = self.table
        x = self.x
        top = t.b * t.l_s[s] - 1
        while x > top:
            self.digits.appendleft(x % t.b)
            x //= t.b
        self.x = t.encode_step(s, x)

    def pop(self) -> int:
        t = self.table
        s, x = t.decode_step(self.x)
        while x < t.l:
            if not self.digits:
                raise CorruptStream("digit stream exhausted during renormalization")
            x = x * t.b + self.digits.popleft()
        self.x = x
        return s


def ans_stream_encode(symbols: Sequence[int], table: AnsTable, initial_x: Optional[int] = None) -> tuple[list[int], int]:
    """Encode symbols (walked back to front); digits come back in decoder order."""
    l, b = table.l, table.b
    x = l if initial_x is None else initial_x
    if not l <= x < b * l:
        raise ValueError("initial state outside the coding interval")
    enc = table.enc
    l_s = table.l_s
    hi = [b * ls - 1 for ls in l_s]
    emitted: list[int] = []
    append = emitted.append
    for s in reversed(symbols):
        top = hi[s]
        while x > top:
            append(x % b)
            x //= b
        x = enc[s][x - l_s[s]]
    emitted.reverse()
    return emitted, x


def ans_stream_decode(digits: Sequence[int], table: AnsTable, final_x: int) -> list[int]:
    """Decode a digit stream produced by ans_stream_encode.

    The stream must have started at x = l; decoding drains the state back
    to l, which is unambiguous because every digit-free encode step
    strictly increases the state.  It runs the checked loop with no
    forbidden symbol (-1), so a detection there can only mean the digits
    ran out.
    """
    if not table.l <= final_x < table.b * table.l:
        raise CorruptStream("final state outside the coding interval")
    out, hit = ans_stream_decode_checked(digits, table, final_x, -1)
    if hit is not None:
        raise CorruptStream("digit stream exhausted during renormalization")
    return out


def stream_bits(digits_count: int, table: AnsTable) -> int:
    """Total stored bits: digits plus the final-state field."""
    w = int(round(math.log2(table.b)))
    r = int(round(math.log2(table.l)))
    return digits_count * w + r + w


def forbidden_symbol_wrap(qs: Sequence[float], eps: Fraction) -> list[Fraction]:
    """Scale probabilities by (1-eps) and append a never-encoded symbol."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    out = [Fraction(q) * (1 - eps) for q in qs]
    out.append(eps)
    return out


def ans_stream_decode_checked(digits: Sequence[int], table: AnsTable, final_x: int,
                              forbidden: int
                              ) -> tuple[list[int], Optional[ErrorDetected]]:
    """Decode, flagging the first occurrence of the forbidden symbol.

    Digit exhaustion mid-stream is also treated as a detection at the
    current position rather than an exception.
    """
    l, b = table.l, table.b
    if not l <= final_x < b * l:
        return [], ErrorDetected(0)
    dec_sym, dec_xs = table.dec_sym, table.dec_xs
    x = final_x
    pos = 0
    nd = len(digits)
    out: list[int] = []
    while True:  # as a `while` condition this test ran 1.6x slower on CPython 3.11
        if x == l and pos == nd:
            break
        i = x - l
        s = dec_sym[i]
        if s == forbidden:
            return out, ErrorDetected(len(out))
        out.append(s)
        x = dec_xs[i]
        while x < l:
            if pos >= nd:
                return out, ErrorDetected(len(out))
            x = x * b + digits[pos]
            pos += 1
    return out, None


_MAGIC = b"ANS1"
_VERSION = 1
# Largest decode table, (b - 1)·l slots, that a container or a command may
# ask for; 2^20 slots take about 0.4 s and 135 MB to build.
MAX_TABLE_SLOTS = 1 << 20
# digits unpacked per chunk, so the bit arrays stay small beside the list
_UNPACK_CHUNK = 1 << 16


def pack_container(table: AnsTable, final_x: int, digits: Sequence[int]) -> bytes:
    """Frame a coded stream: magic, version, w, R, n, l_s[], key, final
    state, digit count, digits packed LSB-first."""
    w = int(round(math.log2(table.b)))
    r = int(round(math.log2(table.l)))
    head = bytearray()
    head += _MAGIC
    head += struct.pack("<BBBH", _VERSION, w, r, table.n)
    for ls in table.l_s:
        head += struct.pack("<I", ls)
    head += struct.pack("<QQQ", table.key, final_x, len(digits))
    bits = np.frombuffer(bytes(digits), dtype=np.uint8)
    if w > 1:
        bits = np.unpackbits(bits[:, None], axis=1, bitorder="little")[:, :w]
    return bytes(head) + np.packbits(bits, bitorder="little").tobytes()


def unpack_container(blob: bytes, table: Optional[AnsTable] = None
                     ) -> tuple[AnsTable, int, list[int]]:
    """Inverse of pack_container; the table is rebuilt from l_s and key,
    or is `table`, whose w, R, l_s and key the header must repeat."""
    if blob[:4] != _MAGIC:
        raise CorruptStream("bad magic")
    try:
        version, w, r, n = struct.unpack_from("<BBBH", blob, 4)
        if version != _VERSION:
            raise CorruptStream("unsupported version %d" % version)
        l_s = list(struct.unpack_from("<%dI" % n, blob, 9))
        off = 9 + 4 * n
        key, final_x, ndigits = struct.unpack_from("<QQQ", blob, off)
    except struct.error:
        raise CorruptStream("truncated container") from None
    off += 24
    if not 1 <= w <= 8:
        raise CorruptStream("digit width %d outside 1..8" % w)
    if ((1 << w) - 1) << r > MAX_TABLE_SLOTS:
        raise CorruptStream("table of (2^%d - 1) * 2^%d slots exceeds %d"
                            % (w, r, MAX_TABLE_SLOTS))
    if ndigits * w > 8 * (len(blob) - off):
        raise CorruptStream("truncated payload")
    l = 1 << r
    b = 1 << w
    if table is None:
        if sum(l_s) != l:
            raise CorruptStream("slot counts do not sum to the interval size")
        if 0 in l_s:
            # refused before the keyed shuffle, which a large table makes slow
            raise CorruptStream("every symbol needs at least one slot")
        table = _keyed_table(l_s, l, b, key)
    elif (l, b, l_s, key) != (table.l, table.b, table.l_s, table.key):
        raise CorruptStream("container header does not match the table")
    payload = np.frombuffer(blob, dtype=np.uint8, offset=off)
    digits = []
    # a chunk is a multiple of 8 digits, so it starts on a byte boundary
    for start in range(0, ndigits, _UNPACK_CHUNK):
        k = min(_UNPACK_CHUNK, ndigits - start)
        bits = np.unpackbits(payload[start * w // 8:], count=k * w,
                             bitorder="little")
        if w > 1:
            bits = np.packbits(bits.reshape(k, w), axis=1, bitorder="little")
        digits.extend(bits.ravel().tolist())
    return table, final_x, digits


class AbsStreamDecoder:
    """Bit-fed two-symbol splitter with a per-step dyadic probability.

    Used in the direction that turns payload bits into constrained symbols:
    each draw(m) performs a ceiling-variant decode split at q = m / 2^R and
    refills the state one payload bit at a time.  Exhausted input is padded
    with zero bits (the pad count is tracked so callers can account for
    real payload separately).

    The state is seeded with the first R payload bits, so it starts
    uniform over [l, 2l) for random input and even the first draw is
    distributed per its probability (a fixed start would make the leading
    symbols deterministic).

    This is the per-node step of the lattice codecs' walk loops
    (`strip._write`), so it splits with shifts rather than `_ceil_div`:
    for l = 2^R, ceil(x*m / l) = (x*m + l - 1) >> R."""

    def __init__(self, bits: Iterable[int], precision: int):
        if precision < 1:
            raise ValueError("precision must be positive")
        self.r = precision
        self.l = 1 << precision
        self._bits = list(bits)
        seed = self._bits[:precision]
        x = 1
        for b in seed:
            x = 2 * x + b
        self.consumed = len(seed)
        self.padded = precision - len(seed)
        self.x = x << self.padded

    def draw(self, m: int) -> int:
        r = self.r
        l = 1 << r
        if not 0 < m < l:
            raise ValueError("probability numerator out of range")
        x = self.x
        xm = x * m + l - 1
        x1 = xm >> r
        s = ((xm + m) >> r) - x1
        x = x1 if s else x - x1
        if x < l:
            bits, pos = self._bits, self.consumed
            while x < l:
                if pos < len(bits):
                    x = 2 * x + bits[pos]
                    pos += 1
                else:
                    x *= 2
                    self.padded += 1
            self.consumed = pos
        self.x = x
        return s


class AbsStreamEncoder:
    """Inverse of AbsStreamDecoder: absorbs symbols walked in reverse order
    starting from the decoder's final state, emitting the bits it consumed.
    `strip._read` runs absorb on every free node."""

    def __init__(self, final_state: int, precision: int):
        if precision < 1:
            raise ValueError("precision must be positive")
        self.r = precision
        self.l = 1 << precision
        self.x = final_state
        self._emitted: list[int] = []

    def absorb(self, s: int, m: int) -> None:
        r = self.r
        l = 1 << r
        if not 0 < m < l:
            raise ValueError("probability numerator out of range")
        x = self.x
        ls = m if s else l - m
        top = 2 * ls
        if x >= top:
            emit = self._emitted.append
            while x >= top:
                emit(x & 1)
                x >>= 1
        # floor(x*l / m) for a one; ceil((x+1)*l / ls) - 1 for a zero
        self.x = (x << r) // m if s else (((x + 1) << r) - 1) // ls

    def finish(self) -> list[int]:
        """Bits in original payload order, including the R state-seed bits."""
        x = self.x
        if not self.l <= x < 2 * self.l:
            raise CorruptStream("state did not drain into the seed interval")
        emit = self._emitted.append
        while x > 1:
            emit(x & 1)
            x >>= 1
        return list(reversed(self._emitted))
