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
  The decode table is filled by a keyed shuffle (a pool holding
  (b-1) l_s copies of each symbol is consumed by the pinned splitmix64
  stream: i = rng.randbelow(m); s = pool[i]; pool[i] = pool[m-1]; m -= 1).
  The tests keep as a reference the deterministic rule that places symbol
  s where ceil(x R_s) - ceil(x R_{s+1}) increments, R_s being the suffix
  sum q_s + ... + q_{n-1}, which for two symbols is exactly the
  ceiling-variant closed form.

Stream coding renormalizes the state into I with base-b digit moves.  The
encoder walks its input back to front so the decoder emits symbols in
natural order; the emitted digit sequence is returned already reversed
into decoder order, which makes decoding a single forward pass.

An N-symbol stream is coded in K interleaved lanes (Giesen, "Interleaved
entropy coders", arXiv:1402.3392): symbol i goes to lane i mod K, every
lane starts at x = l, and one shared digit stream holds, step by step,
each lane's renormalisation field in lane order, most significant digit
first.  K comes from N alone (`lanes_for`): 1 below LANE_MIN_SYMBOLS = 2^17,
where the single-lane Python loops are as fast, and K = 1 is exactly the
single-lane digit order, and min(1024, N >> 11) from there, where each
step is a handful of numpy calls over the K lanes.  The K final lane
states are part of the stored size: `stream_bits` counts D·w + K·(R + w).

The ANS2 container (`pack_container`) holds l and b as R = lg l and
w = lg b, so both must be powers of two.  Little-endian: magic "ANS2",
version 2, w, R, n (1, 1, 1, 2 bytes), l_s[n] (4 bytes each), key (8),
symbol count N (8), lane count K (2), digit count D (8), the K final lane
states (4 bytes each), the D digits at w bits each packed most
significant bit first, and a crc32 of everything before it.  Decoding
checks K against N, N against the most symbols D digits can carry, and
the length before it allocates; the lanes must end at x = l with every
digit read, which binds N.  A forbidden symbol is reported at its
smallest message index before a checksum mismatch.  ANS1 files are
refused.
"""

from __future__ import annotations

import functools
import struct
import zlib
from fractions import Fraction
from itertools import repeat
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .rng import SplitMix64


class DegenerateSymbol(ValueError):
    pass


class DecodeError(ValueError):
    """Base of every failure to decode outside data: a corrupt stream, an
    invalid lattice or a header that does not match its codec."""


class CorruptStream(DecodeError):
    pass


class CapacityExceeded(RuntimeError):
    """Payload does not fit; carries the achieved and requested bit counts."""

    def __init__(self, achieved_bits: int, requested_bits: int):
        self.achieved_bits = achieved_bits
        self.requested_bits = requested_bits
        super().__init__("lattice holds only %d of %d payload bits"
                         % (achieved_bits, requested_bits))


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
    """Decode/encode columns over I = {l, ..., b l - 1}, as arrays: slot
    x - l holds the symbol sym_array[x - l] and its reduced state
    xs_array[x - l], and s's reduced state xs encodes to
    enc_array[enc_base[s] + xs]."""

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
        sym = np.asarray(dec_sym, dtype=np.int64)
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
        self.sym_array = sym
        self.xs_array = xs
        self.enc_array = l + slots
        self.enc_base = start - self.l_s


# keyed-shuffle draws taken from the generator per block
_SHUFFLE_CHUNK = 1 << 16


def ans_build_table(qs: Sequence[float], l: int, b: int = 2, key: int = 0) -> AnsTable:
    """Keyed pseudo-random table over the largest-remainder slot counts of
    the probabilities qs (`_keyed_table`)."""
    return _keyed_table(tuple(largest_remainder(l, qs)), l, b, key)


# the last table only, so an encoder's --verify reread reuses it
@functools.lru_cache(maxsize=1)
def _keyed_table(l_s: tuple, l: int, b: int, key: int) -> AnsTable:
    """Keyed pseudo-random table: pool of (b-1) l_s copies per symbol,
    consumed by the pinned splitmix64 stream in state order x = l .. bl-1."""
    pool = np.repeat(np.arange(len(l_s)), (b - 1) * np.asarray(l_s)).tolist()
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


# Lanes: symbol i of an N-symbol stream goes to lane i mod K.  Below
# LANE_MIN_SYMBOLS a single lane runs the plain loops; from there K lanes
# step together as numpy arrays, K <= N / 2^11, so the K lane states cost
# at most (R + w) / 2048 bit per symbol.
LANE_MIN_SYMBOLS = 1 << 17
MAX_LANES = 1024
_SYMBOLS_PER_LANE_LOG = 11
# Lane fields held at a time: the lane encoder runs its steps back to front
# in blocks of at most this many fields and turns each block into digits
# before it starts the next, so its working arrays do not grow with N
_EMIT_BLOCK = 1 << 16
# decoded symbols allocated per block, so a claimed count is not
# allocated before digits back it
_OUT_BLOCK = 1 << 20


def lanes_for(count: int) -> int:
    """Lane count K of a stream of `count` symbols."""
    if count < LANE_MIN_SYMBOLS:
        return 1
    return min(MAX_LANES, count >> _SYMBOLS_PER_LANE_LOG)


def _lane_width(table: AnsTable) -> tuple[int, int]:
    """Digit width w = lg b and state width R = lg l; the lane steps read
    bit fields and a container stores both exponents, so l and b must be
    powers of two."""
    w = table.b.bit_length() - 1
    r = table.l.bit_length() - 1
    if table.b != 1 << w or table.l != 1 << r:
        raise ValueError("lanes and containers need a power-of-two l and b")
    return w, r


def ans_stream_encode(symbols: Sequence[int], table: AnsTable
                      ) -> tuple[np.ndarray, list[int]]:
    """Encode symbols in K = lanes_for(N) interleaved lanes.

    Symbol i goes to lane i mod K.  Every lane starts at x = l and walks
    its symbols back to front; the step that encodes symbols tK .. tK+K-1
    emits one renormalisation field per lane.  The digits come back in
    decoder order, one uint8 each: step by step from the first, lane by
    lane within a step, each field's digits most significant first.  With
    K = 1 that is the single-lane coder's order.  Returns the digits and
    the K final lane states."""
    sym = _symbol_array(symbols, table)
    k = lanes_for(len(sym))
    if k > 1:
        return _encode_lanes(sym, table, k)
    digits, x = _encode_one_lane(sym.tolist(), table)
    return np.frombuffer(bytes(digits), dtype=np.uint8), [x]


def _encode_one_lane(symbols: Sequence[int], table: AnsTable) -> tuple[list[int], int]:
    l, b = table.l, table.b
    x = l
    enc, base = table.enc_array.tolist(), table.enc_base.tolist()
    # no comprehension over b: it would make b a closure cell in the loop
    hi = (b * np.asarray(table.l_s, dtype=np.int64) - 1).tolist()
    emitted: list[int] = []
    for s in reversed(symbols):
        top = hi[s]
        while x > top:
            emitted.append(x % b)
            x //= b
        x = enc[base[s] + x]
    emitted.reverse()
    return emitted, x


def _symbol_array(symbols, table: AnsTable) -> np.ndarray:
    if isinstance(symbols, (bytes, bytearray)):
        sym = np.frombuffer(symbols, dtype=np.uint8)
    else:
        sym = np.asarray(symbols)
    if len(sym) and not 0 <= sym.min() <= sym.max() < table.n:
        raise ValueError("symbol outside 0..%d" % (table.n - 1))
    return sym


def _encode_lanes(sym: np.ndarray, table: AnsTable, k: int):
    l, b = table.l, table.b
    w, _ = _lane_width(table)
    # Symbol s emits a digit per threshold (b l_s) << (j w) at or below the
    # state.  States lie in [l, b l), which holds exactly one threshold, so
    # an encode step emits lo[s] / w digits, one more from state cut[s] on.
    lo, cut = [], []
    for ls in table.l_s:
        t, bits = b * ls, 0
        while t < l:
            t <<= w
            bits += w
        lo.append(bits)
        cut.append(t)
    lo = np.array(lo, dtype=np.int64)
    cut = np.array(cut, dtype=np.int64)
    enc, base = table.enc_array, table.enc_base

    steps = -(-len(sym) // k)
    x = np.full(k, l, dtype=np.int64)
    per = max(1, _EMIT_BLOCK // k)  # steps per block
    parts = [np.zeros(0, dtype=np.uint8)]
    for end in range(steps, 0, -per):
        start = max(end - per, 0)
        fields = np.zeros((end - start, k), dtype=np.int32)
        nbits = np.zeros((end - start, k), dtype=np.uint8)
        block = sym[start * k:end * k].astype(np.intp)
        for t in range(end - start - 1, -1, -1):
            s = block[t * k:(t + 1) * k]
            m = len(s)
            xv = x[:m]
            nb = lo[s] + w * (xv >= cut[s])
            xs = xv >> nb
            fields[t, :m] = xv - (xs << nb)
            nbits[t, :m] = nb
            xv[:] = enc[base[s] + xs]
        parts.append(_field_digits(fields.ravel(), nbits.ravel() // w, w))
    return np.concatenate(parts[::-1]), x.tolist()


def _field_digits(fields: np.ndarray, counts: np.ndarray, w: int) -> np.ndarray:
    """The w-bit digits of each field in turn, `counts` of them per field,
    most significant first; a block of at most _EMIT_BLOCK fields, so its
    digit offsets fit int32."""
    ends = np.add.accumulate(counts, dtype=np.int32)
    shift = np.repeat(ends, counts)
    shift -= np.arange(1, len(shift) + 1, dtype=np.int32)
    shift *= w
    f = np.repeat(fields, counts)
    f >>= shift
    f &= (1 << w) - 1
    return f.astype(np.uint8)


_FORBIDDEN = "forbidden symbol"


class ErrorDetected(CorruptStream):
    """Decoding stopped at message index `position`: the forbidden symbol
    decoded there (`forbidden`), or the stream broke off or ended wrong."""

    def __init__(self, position: int, what: str):
        super().__init__("%s at position %d" % (what, position))
        self.position = position
        self.forbidden = what == _FORBIDDEN


def ans_stream_decode(digits: Sequence[int], table: AnsTable, states: Sequence[int],
                      count: int, forbidden: Optional[int] = None) -> np.ndarray:
    """Decode `count` symbols from ans_stream_encode's digits and its
    len(states) final lane states; returns them as a uint8 array (uint16
    past 256 symbols).

    Raises ErrorDetected at the smallest message index that decodes the
    `forbidden` symbol; else at the symbol whose renormalisation reads past
    the last digit, or at `count` when a lane does not end at x = l or a
    digit is left unread.  The last check binds the count: every
    digit-free decode step strictly lowers a lane's state, so a stream cut
    short never ends back at l with its digits used up."""
    top = table.b * table.l
    if not states or not table.l <= min(states) <= max(states) < top:
        raise CorruptStream("lane state outside the coding interval")
    digits = np.asarray(digits, dtype=np.uint8)
    if len(states) > 1:
        return _decode_lanes(digits, table, states, count, forbidden)
    out = _decode_one_lane(digits.tolist(), table, states[0], count, forbidden)
    if table.n <= 256:
        return np.frombuffer(bytes(out), dtype=np.uint8)
    return np.array(out, dtype=np.uint16)


def _decode_one_lane(digits: list, table: AnsTable, x: int, count: int,
                     forbidden: Optional[int]) -> list:
    l, b = table.l, table.b
    dec_sym, dec_xs = table.sym_array.tolist(), table.xs_array.tolist()
    nd = len(digits)
    pos = 0
    out: list[int] = []
    for _ in repeat(None, count):  # no int object per step, unlike range
        i = x - l
        s = dec_sym[i]
        if s == forbidden:
            raise ErrorDetected(len(out), _FORBIDDEN)
        out.append(s)
        x = dec_xs[i]
        while x < l:
            if pos >= nd:
                raise ErrorDetected(len(out), "digit stream exhausted")
            x = x * b + digits[pos]
            pos += 1
    if x != l or pos != nd:
        raise ErrorDetected(count, "unread digits or unfinished lanes")
    return out


def _first_forbidden(syms: np.ndarray, forbidden: Optional[int]) -> None:
    if forbidden is not None:
        hit = np.flatnonzero(syms == forbidden)
        if len(hit):
            raise ErrorDetected(int(hit[0]), _FORBIDDEN)


def _decode_lanes(digits, table, states, count, forbidden):
    l = table.l
    w, _ = _lane_width(table)
    k = len(states)
    # per slot: its symbol, the bits its renormalisation reads, and its
    # reduced state shifted up by them
    top = table.xs_array.copy()
    bits_at = np.zeros_like(top)
    while (low := top < l).any():
        bits_at[low] += w
        top[low] <<= w
    sym_at = table.sym_array.astype(np.uint8 if table.n <= 256 else np.uint16)
    cut_at = (63 - bits_at).astype(np.uint64)
    # the bit stream, most significant bit first, as one 64-bit window per
    # byte offset: a big-endian view at a one-byte stride, read once into
    # native order
    packed = _pack_digits(digits, w)
    total = len(digits) * w
    buf = np.zeros(len(packed) + 8, dtype=np.uint8)
    buf[:len(packed)] = packed
    win = np.ndarray(len(packed) + 1, ">u8", buf, strides=(1,)).astype(np.uint64)

    x = np.array(states, dtype=np.int64)
    out = np.empty(min(count, _OUT_BLOCK), dtype=sym_at.dtype)
    pos = 0
    for a in range(0, count, k):
        m = min(k, count - a)
        xv = x[:m]
        if a + m > len(out):
            out = np.concatenate((out, np.empty(min(len(out), count - len(out)),
                                                dtype=out.dtype)))
        i = xv - l
        out[a:a + m] = sym_at[i]
        nb = bits_at[i]
        ends = np.add.accumulate(nb)
        ends += pos
        if ends[-1] > total:
            over = a + int(np.argmax(ends > total))
            _first_forbidden(out[:over + 1], forbidden)
            raise ErrorDetected(over + 1, "digit stream exhausted")
        p = ends - nb
        v = win[p >> 3] << (p & 7).view(np.uint64)
        xv[:] = top[i] | ((v >> 1) >> cut_at[i]).view(np.int64)
        pos = int(ends[-1])
    out = out[:count]
    _first_forbidden(out, forbidden)
    if pos != total or (x != l).any():
        raise ErrorDetected(count, "unread digits or unfinished lanes")
    return out


def stream_bits(digits_count: int, table: AnsTable, lanes: int = 1) -> int:
    """Total stored bits: digits plus the lanes' final-state fields."""
    w, r = _lane_width(table)
    return digits_count * w + lanes * (r + w)


def forbidden_symbol_wrap(qs: Sequence[float], eps: Fraction) -> list[Fraction]:
    """Scale probabilities by (1-eps) and append a never-encoded symbol."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0,1)")
    out = [Fraction(q) * (1 - eps) for q in qs]
    out.append(eps)
    return out


_MAGIC = b"ANS2"
_VERSION = 2
# magic, version, w, R, n; then l_s[n]; then key, N, K, D
_HEAD = struct.Struct("<4sBBBH")
_COUNTS = struct.Struct("<QQHQ")
# Largest decode table, (b - 1)·l slots, that a container or a command may
# ask for; 2^20 slots take about 0.4 s and 135 MB to build.
MAX_TABLE_SLOTS = 1 << 20


def _pack_digits(digits: np.ndarray, w: int) -> np.ndarray:
    """w bits per digit, most significant first, packed MSB-first."""
    if w == 1:
        return np.packbits(digits)
    return np.packbits(np.unpackbits(digits[:, None], axis=1)[:, 8 - w:])


def _unpack_digits(payload: np.ndarray, count: int, w: int) -> np.ndarray:
    bits = np.unpackbits(payload, count=count * w)
    if w == 1:
        return bits
    return np.packbits(bits.reshape(count, w), axis=1).ravel() >> (8 - w)


def pack_container(table: AnsTable, states: Sequence[int], digits: Sequence[int],
                   count: int) -> bytes:
    """Frame a coded stream as ANS2: magic, version, w, R, n, l_s[], key,
    symbol count N, lane count K, digit count D, the K final lane states,
    the digits packed MSB-first, and a crc32 of all that."""
    w, r = _lane_width(table)
    k = len(states)
    _check_counts(count, k, len(digits), (table.b - 1) * table.l)
    digits = np.asarray(digits, dtype=np.uint8)
    body = b"".join((_HEAD.pack(_MAGIC, _VERSION, w, r, table.n),
                     struct.pack("<%dI" % table.n, *table.l_s),
                     _COUNTS.pack(table.key, count, k, len(digits)),
                     struct.pack("<%dI" % k, *states),
                     _pack_digits(digits, w).tobytes()))
    return body + struct.pack("<I", zlib.crc32(body))


def _check_counts(count: int, k: int, ndigits: int, slots: int) -> None:
    """K must be lanes_for(N), and N at most what D digits carry: a lane
    takes fewer than `slots` = (b - 1) l digit-free steps in a row."""
    if k != lanes_for(count):
        raise CorruptStream("%d symbols code in %d lanes, not %d"
                            % (count, lanes_for(count), k))
    if count > (ndigits + k) * slots:
        raise CorruptStream("%d symbols exceed what %d digits can carry"
                            % (count, ndigits))


class Container(NamedTuple):
    """An unpacked ANS2 container; `crc_ok` tells whether its checksum held."""
    table: AnsTable
    states: list
    count: int
    digits: np.ndarray
    crc_ok: bool


def unpack_container(blob: bytes) -> Container:
    """Inverse of pack_container; the table is rebuilt from l_s and key
    (`_keyed_table`, which keeps the last one built).  Every count is
    checked against the others and the length before anything is
    allocated; the lane states are checked where they are decoded
    (`ans_stream_decode`), and the checksum is only reported."""
    if blob[:4] == b"ANS1":
        raise CorruptStream("ANS1 containers are no longer read; "
                            "re-encode the source file")
    if blob[:4] != _MAGIC:
        raise CorruptStream("bad magic")
    try:
        _, version, w, r, n = _HEAD.unpack_from(blob)
        if version != _VERSION:
            raise CorruptStream("unsupported version %d" % version)
        l_s = struct.unpack_from("<%dI" % n, blob, _HEAD.size)
        off = _HEAD.size + 4 * n
        key, count, k, ndigits = _COUNTS.unpack_from(blob, off)
    except struct.error:
        raise CorruptStream("truncated container") from None
    off += _COUNTS.size
    if not 1 <= w <= 8:
        raise CorruptStream("digit width %d outside 1..8" % w)
    if ((1 << w) - 1) << r > MAX_TABLE_SLOTS:
        raise CorruptStream("table of (2^%d - 1) * 2^%d slots exceeds %d"
                            % (w, r, MAX_TABLE_SLOTS))
    l = 1 << r
    b = 1 << w
    _check_counts(count, k, ndigits, (b - 1) * l)
    end = off + 4 * k + _ceil_div(ndigits * w, 8)
    if len(blob) != end + 4:
        raise CorruptStream("container of %d bytes, its header implies %d"
                            % (len(blob), end + 4))
    states = list(struct.unpack_from("<%dI" % k, blob, off))
    if sum(l_s) != l:
        raise CorruptStream("slot counts do not sum to the interval size")
    if 0 in l_s:
        # refused before the keyed shuffle, which a large table makes slow
        raise CorruptStream("every symbol needs at least one slot")
    table = _keyed_table(l_s, l, b, key)
    payload = np.frombuffer(blob, dtype=np.uint8, count=end - off - 4 * k,
                            offset=off + 4 * k)
    crc_ok = zlib.crc32(memoryview(blob)[:end]) == struct.unpack_from("<I", blob, end)[0]
    return Container(table, states, count, _unpack_digits(payload, ndigits, w), crc_ok)


def decode_container(blob: bytes, forbidden: bool = False) -> np.ndarray:
    """Symbols of an ANS2 container; with `forbidden`, the table's last
    symbol is the never-encoded one.  A forbidden symbol is reported first,
    at its smallest message index; any other failure of a container whose
    checksum does not hold is reported as the checksum mismatch."""
    c = unpack_container(blob)
    try:
        syms = ans_stream_decode(c.digits, c.table, c.states, c.count,
                                 c.table.n - 1 if forbidden else None)
    except ErrorDetected as e:
        if e.forbidden or c.crc_ok:
            raise
    else:
        if c.crc_ok:
            return syms
    raise CorruptStream("checksum mismatch")


# zeros appended at a time once a bit-fed coder has read its whole payload
_PAD = 1 << 10
# bytes.translate table that turns each 0/1 byte into the other
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _bit_bytes(bits) -> bytearray:
    """The 0/1 sequence `bits` (a list, bytes or an integer array of any
    dtype) one byte a bit.  An array is cast to uint8 first: bytearray of
    an int64 array would copy its raw 8 bytes a bit."""
    if isinstance(bits, np.ndarray):
        small = bits.astype(np.uint8)
        if (small != bits).any():
            raise ValueError("payload bits must be 0 or 1")
        bits = small
    out = bytearray(bits)
    if out.translate(None, b"\0\1"):
        raise ValueError("payload bits must be 0 or 1")
    return out


class AbsStreamDecoder:
    """Bit-fed two-symbol splitter with a per-step dyadic probability.

    Used in the direction that turns payload bits into constrained symbols:
    each draw(m) performs a ceiling-variant decode split at q = m / 2^R and
    refills the state one payload bit at a time.  The payload (any 0/1
    sequence, `_bit_bytes`) is kept as a bytearray, one byte a bit, and
    reads as followed by zeros, appended `_PAD` at a time as bytes:
    `consumed` counts the payload bits read and `padded` the zeros past its
    end, so callers can account for real payload separately.

    The state is seeded with the first R payload bits, so it starts
    uniform over [l, 2l) for random input and even the first draw is
    distributed per its probability (a fixed start would make the leading
    symbols deterministic).

    The lattice codecs' walks call it directly (`strip._write` hands each
    walk the coder): `draw` is their per-node step, so it splits with
    shifts rather than `_ceil_div`: for l = 2^R, ceil(x*m / l) =
    (x*m + l - 1) >> R, and the symbol ceil((x+1)*m / l) - ceil(x*m / l)
    is 1 exactly when the low R bits of x*m + l - 1 are at least l - m.
    A run at one law is one coder call (`run`), which returns its symbols
    as bytes, and the fair law is its shift, one `bytes.translate`: each
    pass of the checkerboard writer is such a run."""

    def __init__(self, bits: Iterable[int], precision: int):
        if precision < 1:
            raise ValueError("precision must be positive")
        self.r = precision
        self.l = 1 << precision
        self._bits = _bit_bytes(bits)
        self._n = len(self._bits)
        x = 1
        for b in self._bits[:precision]:
            x = 2 * x + b
        self._pos = precision  # bits read, zeros past the payload included
        self.x = x << max(precision - self._n, 0)

    @property
    def consumed(self) -> int:
        return min(self._pos, self._n)

    @property
    def padded(self) -> int:
        return self._pos - self.consumed

    def draw(self, m: int) -> int:
        l = self.l
        if not 0 < m < l:
            raise ValueError("probability numerator out of range")
        x = self.x
        xm = x * m + l - 1
        if xm & (l - 1) >= l - m:
            s, x = 1, xm >> self.r
        else:
            s, x = 0, x - (xm >> self.r)
        if x < l:
            bits, pos = self._bits, self._pos
            while x < l:
                try:
                    x = 2 * x + bits[pos]
                except IndexError:  # the payload is spent: read zeros
                    bits += bytes(pos - len(bits) + _PAD)
                    continue
                pos += 1
            self._pos = pos
        self.x = x
        return s

    def run(self, m: int, k: int) -> bytes:
        """The k symbols that k draw(m) calls return, as one call, one byte
        each.

        At the fair law m = 2^(R-1) a draw returns 1 - (x & 1) and replaces
        the low bit of x by the next bit read; the top R bits stay.  So a
        fair run is one shift: the low bit of x, then the next k - 1 bits,
        each inverted, and the k-th becomes the new low bit."""
        l = self.l
        if not 0 < m < l:
            raise ValueError("probability numerator out of range")
        if k <= 0:
            return b""
        r, x, bits, pos = self.r, self.x, self._bits, self._pos
        if m == l >> 1:
            got = bytearray((x & 1,)) + bits[pos:pos + k]
            got += bytes(k + 1 - len(got))
            self._pos = pos + k
            self.x = x - (x & 1) + got.pop()
            return bytes(got).translate(_FLIP)
        c, lm = l - 1, l - m
        out = bytearray()
        put = out.append
        for _ in repeat(None, k):
            xm = x * m + c
            if xm & c >= lm:
                x = xm >> r
                put(1)
            else:
                x -= xm >> r
                put(0)
            while x < l:
                try:
                    x = 2 * x + bits[pos]
                except IndexError:  # the payload is spent: read zeros
                    bits += bytes(pos - len(bits) + _PAD)
                    continue
                pos += 1
        self.x, self._pos = x, pos
        return bytes(out)


class AbsStreamEncoder:
    """Inverse of AbsStreamDecoder: absorbs symbols walked in reverse order
    starting from the decoder's final state, emitting the bits it consumed
    into a bytearray, one byte a bit.  `strip._absorb` runs absorb on every
    free node that the walk drew with `draw`, back to front, and absorb_run
    on each run a walk drew with `run`; `finish` returns the payload as
    bytes of 0s and 1s."""

    def __init__(self, final_state: int, precision: int):
        if precision < 1:
            raise ValueError("precision must be positive")
        self.r = precision
        self.l = 1 << precision
        self.x = final_state
        # emitted bits, one byte each, last payload bit first
        self._emitted = bytearray()

    def absorb(self, s: int, m: int) -> None:
        l = self.l
        if not 0 < m < l:
            raise ValueError("probability numerator out of range")
        x = self.x
        # floor(x*l / m) for a one; ceil((x+1)*l / ls) - 1 for a zero
        if s:
            top = 2 * m
            if x >= top:
                emit = self._emitted.append
                while x >= top:
                    emit(x & 1)
                    x >>= 1
            self.x = (x << self.r) // m
        else:
            ls = l - m
            top = 2 * ls
            if x >= top:
                emit = self._emitted.append
                while x >= top:
                    emit(x & 1)
                    x >>= 1
            self.x = (((x + 1) << self.r) - 1) // ls

    def absorb_run(self, symbols: Sequence[int], m: int) -> None:
        """absorb(s, m) for each s of a run given in visiting order (a list,
        or bytes of 0s and 1s), back to front, as one call.  At the fair
        law 2^(R-1) it is one shift, one `bytes.translate`: each absorb
        emits the low bit of x and replaces it by 1 - s (x stays in
        [l, 2l))."""
        l = self.l
        if not 0 < m < l:
            raise ValueError("probability numerator out of range")
        if not symbols:
            return
        r, x, emitted = self.r, self.x, self._emitted
        if m == l >> 1:
            emitted.append(x & 1)
            emitted += bytes(symbols[:0:-1]).translate(_FLIP)
            self.x = x - (x & 1) + 1 - symbols[0]
            return
        emit = emitted.append
        ls = l - m
        top1, top0 = 2 * m, 2 * ls
        for s in reversed(symbols):
            if s:
                while x >= top1:
                    emit(x & 1)
                    x >>= 1
                x = (x << r) // m
            else:
                while x >= top0:
                    emit(x & 1)
                    x >>= 1
                x = (((x + 1) << r) - 1) // ls
        self.x = x

    def finish(self) -> bytes:
        """Bits in original payload order, including the R state-seed bits,
        one byte each."""
        x = self.x
        if not self.l <= x < 2 * self.l:
            raise CorruptStream("state did not drain into the seed interval")
        emitted = self._emitted
        while x > 1:
            emitted.append(x & 1)
            x >>= 1
        emitted.reverse()
        return bytes(emitted)
