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
The bit-fed binary coder draws a long run at one law in lanes the same
way (`abs_run_lanes`), each lane a contiguous block of the run, and the
strip codec a long walk, each lane a stretch of columns: both through
one lane step (`LaneDraws`, `AbsStreamEncoder.absorb_lanes`).  The lane
decoders of both coders read their fields through one bit reader
(`_bit_reader`), and their lane encoders emit theirs through one
`_field_digits`.

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
# and the ABS lane absorb, whose blocks hold four more arrays
_ABS_EMIT_BLOCK = 1 << 13
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
    l = table.l
    w, _ = _lane_width(table)
    lo, cut = _emit_bounds(table.l_s, l, w)
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


def _emit_bounds(slots: Sequence[int], l: int, w: int) -> tuple:
    """(lo, cut) of the ANS lane encoder, int64 arrays over the symbols, a
    symbol's slot count in `slots`: it emits a w-bit digit per threshold
    (l_s << w) << (j w) at or below the state.  States lie in [l, l << w),
    which holds exactly one threshold, so an encode step emits lo[s] bits,
    w more from state cut[s] on."""
    lo, cut = [], []
    for ls in slots:
        t, bits = ls << w, 0
        while t < l:
            t <<= w
            bits += w
        lo.append(bits)
        cut.append(t)
    return np.array(lo, dtype=np.int64), np.array(cut, dtype=np.int64)


def _field_digits(fields: np.ndarray, counts: np.ndarray, w: int) -> np.ndarray:
    """The w-bit digits of each field in turn, `counts` of them per field,
    most significant first.  Each field, below 2^32, is repeated once per
    digit with its end offset in the high half: one repeat, not two."""
    ends = np.add.accumulate(counts, dtype=np.int64)
    f = np.repeat(fields | (ends << 32), counts)
    shift = f >> 32
    shift -= np.arange(1, len(f) + 1)
    shift *= w
    f &= 0xFFFFFFFF
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


def _bit_reader(packed: np.ndarray):
    """read(p, cut): the field of 63 - cut bits (cut an integer array in
    31..63) at each bit offset p, ascending, of the bit stream `packed`
    holds most significant bit first, as int64; the stream reads as
    followed by zeros.  Each field comes from one 64-bit window per 4-byte
    offset, which holds it whole: a big-endian view of the bytes at a
    4-byte stride, read once into native order, the last window all
    zeros."""
    last = len(packed) // 4 + 1
    buf = np.zeros(4 * last + 8, dtype=np.uint8)
    buf[:len(packed)] = packed
    win = np.ndarray(last + 1, ">u8", buf, strides=(4,)).astype(np.uint64)

    def read(p: np.ndarray, cut: np.ndarray) -> np.ndarray:
        at = p >> 5
        if at[-1] > last:  # past the stream: the all-zero window
            np.minimum(at, last, out=at)
        v = win[at] << (p & 31).view(np.uint64)
        # the top bit cleared first: a shift by 64 is undefined
        return (v >> 1).view(np.int64) >> cut

    return read


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
    cut_at = 63 - bits_at
    read = _bit_reader(_pack_digits(digits, w))
    total = len(digits) * w

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
        xv[:] = top[i] | read(ends - nb, cut_at[i])
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
# A run of one law (`AbsStreamDecoder.run`) of ABS_LANE_MIN_NODES nodes or
# more, at R <= 31 so that x * m fits int64, is drawn in K <= count / 2^9
# lanes, so the K - 1 extra final states cost about 1/512 bit per node.
ABS_LANE_MIN_NODES = 1 << 16
_NODES_PER_ABS_LANE_LOG = 9
ABS_LANE_MAX_PRECISION = 31


def abs_run_lanes(count: int, m: int, precision: int) -> int:
    """Lane count K of a run of `count` nodes at the one law m / 2^R: 1 for
    a forced or fair law (the fair one is a shift at any length), a short
    run or R > 31, else min(MAX_LANES, count >> 9)."""
    l = 1 << precision
    if (count < ABS_LANE_MIN_NODES or precision > ABS_LANE_MAX_PRECISION
            or not 0 < m < l or m == l >> 1):
        return 1
    return min(MAX_LANES, count >> _NODES_PER_ABS_LANE_LOG)


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
    pass of the checkerboard writer is such a run.  A long run is drawn in
    K interleaved lanes (`abs_run_lanes`); `lanes` collects the final
    states of lanes 1..K-1 of each, lane 0 going on as the coder's state."""

    def __init__(self, bits: Iterable[int], precision: int):
        if precision < 1:
            raise ValueError("precision must be positive")
        self.r = precision
        self.l = 1 << precision
        self.lanes: list[int] = []
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
        each inverted, and the k-th becomes the new low bit.  A run that
        `abs_run_lanes` gives K > 1 lanes is drawn by `_run_lanes`."""
        l = self.l
        if not 0 < m < l:
            raise ValueError("probability numerator out of range")
        if k <= 0:
            return b""
        lanes = abs_run_lanes(k, m, self.r)
        if lanes > 1:
            return self._run_lanes(m, k, lanes)
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

    def _run_lanes(self, m: int, k: int, lanes: int) -> bytes:
        """run(m, k) in K = `lanes` interleaved lanes (`LaneDraws`): lane j
        draws the j-th contiguous block of the run, the blocks one node
        shorter last, so a step draws one node of every live lane."""
        steps = -(-k // lanes)
        live = k - (steps - 1) * lanes  # lanes that draw at the last step
        draws = LaneDraws(self, lanes)
        out = np.empty((steps, lanes), dtype=bool)  # step t's symbols, row t
        for t in range(steps):
            draws.step(m, out[t, :lanes if t < steps - 1 else live])
        draws.close()
        flat = out.T.ravel()  # lane after lane
        del out
        if live < lanes:  # close the gaps the short lanes leave
            flat[live * steps:k] = flat[live * steps:].reshape(-1, steps)[:, :-1].ravel()
        return flat[:k].tobytes()


class LaneDraws:
    """The draws of K interleaved lanes (Giesen, arXiv:1402.3392) that go
    on from an `AbsStreamDecoder`: lane 0 starts at the coder's state, and
    lanes 1..K-1 at the next (K - 1) R payload bits, R a lane in lane
    order.  `step` draws one node in each of the first n lanes with
    `draw`'s ceiling split, as a few numpy calls over the lanes, and the
    lanes then take their refill bits from the one payload stream in lane
    order, through 64-bit windows over the packed payload (`_bit_reader`).
    A forced law, 0 or 2^R, leaves its lane's state as it is and reads no
    bit.  `close` hands lane 0's state and the bits read back to the coder
    and appends the final states of lanes 1..K-1 to its `lanes`.  Needs
    R <= ABS_LANE_MAX_PRECISION, so that x * m fits int64."""

    def __init__(self, dec: AbsStreamDecoder, lanes: int):
        r, l = dec.r, dec.l
        self.dec = dec
        self.read = read = _bit_reader(
            np.packbits(np.frombuffer(dec._bits, np.uint8)[dec._pos:]))
        self.x = np.empty(lanes, dtype=np.int64)
        self.x[0] = dec.x
        self.x[1:] = l | read(r * np.arange(lanes - 1), np.full(lanes - 1, 63 - r))
        # at[0] the bits read so far, at[1:] each lane's refill count; its
        # running sum puts each lane's field offset at ends[j], and the
        # bits read after a step of n lanes at ends[n]
        self.at = np.empty(lanes + 1, dtype=np.int64)
        self.ends = np.empty_like(self.at)
        self.ends[lanes] = r * (lanes - 1)
        self.n = lanes

    def step(self, m, s: np.ndarray) -> None:
        """Draw one node in each of the first len(s) lanes at its law m (one
        law, or an array of one per lane) into the bool array s."""
        r, l = self.dec.r, self.dec.l
        n = len(s)
        xv, at, ends = self.x[:n], self.at, self.ends
        at[0] = ends[self.n]
        self.n = n
        xm = xv * m
        xm += l - 1
        np.greater_equal(xm & (l - 1), l - m, out=s)
        xm >>= r
        xs = np.where(s, xm, xv - xm)
        # xs < 2^e, so it takes R + 1 - e refill bits
        e = np.frexp(xs)[1]
        nb = np.subtract(r + 1, e, out=at[1:n + 1])
        np.add.accumulate(at[:n + 1], out=ends[:n + 1])
        xs <<= nb
        e += 62 - r
        np.bitwise_or(xs, self.read(ends[:n], e), out=xv)

    def close(self) -> None:
        dec = self.dec
        dec._pos += int(self.ends[self.n])
        dec.x = int(self.x[0])
        dec.lanes += self.x[1:].tolist()


class AbsStreamEncoder:
    """Inverse of AbsStreamDecoder: absorbs symbols walked in reverse order
    starting from the decoder's final state, emitting the bits it consumed
    into a bytearray, one byte a bit.  `strip._absorb` runs absorb on every
    free node that the walk drew with `draw`, back to front, and absorb_run
    on each run a walk drew with `run`; `finish` returns the payload as
    bytes of 0s and 1s.  `lanes` are the decoder's `lanes`: a laned run
    takes its K - 1 final states from their end.  With none, every run is
    absorbed as one lane, as runs were drawn before lanes."""

    def __init__(self, final_state: int, precision: int, lanes: Sequence[int] = ()):
        if precision < 1:
            raise ValueError("precision must be positive")
        self.r = precision
        self.l = 1 << precision
        self.x = final_state
        self.lanes = list(lanes)
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
        lanes = abs_run_lanes(len(symbols), m, self.r) if self.lanes else 1
        if lanes > 1:
            return self._absorb_lanes(symbols, m, lanes)
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

    def _absorb_lanes(self, symbols, m: int, lanes: int) -> None:
        """absorb_run of a run drawn by `AbsStreamDecoder._run_lanes` in K
        = `lanes` lanes, _ABS_EMIT_BLOCK fields at a time
        (`absorb_lanes`)."""
        k = len(symbols)
        steps = -(-k // lanes)
        live = k - (steps - 1) * lanes
        sym = np.frombuffer(bytes(symbols), dtype=bool)
        # lane j's block, row j: the live lanes', then the short ones'
        full = sym[:live * steps].reshape(live, steps)
        short = sym[live * steps:].reshape(lanes - live, steps - 1)
        per = max(1, _ABS_EMIT_BLOCK // lanes)  # steps per block

        def blocks():
            for end in range(steps, 0, -per):
                start = max(end - per, 0)
                s = np.zeros((end - start, lanes), dtype=bool)
                s[:, :live] = full[:, start:end].T
                s[:min(end, steps - 1) - start, live:] = short[:, start:end].T
                counts = [lanes] * (end - start)
                if end == steps:
                    counts[-1] = live
                yield s, m, counts

        self.absorb_lanes(blocks(), lanes)

    def absorb_lanes(self, blocks, lanes: int) -> None:
        """Absorb what `LaneDraws` drew in K = `lanes` lanes, taking lanes
        1..K-1's final states from the end of `lanes`.  `blocks` holds its
        steps back to front, a block at a time, as (s, m, counts): row t of
        the bool array s holds a step's symbols, m their laws (an array
        like s, or one law), and counts[t] the lanes that drew at it, the
        first ones.  Each block's steps run back to front, their refill
        fields are turned into bits (`_field_digits`) and emitted; then
        come lanes 1..K-1's seed bits.  A forced law with the symbol it
        forces leaves its lane's state as it is and emits nothing."""
        r, l = self.r, self.l
        if len(self.lanes) < lanes - 1:
            raise CorruptStream("a run of %d lanes finds %d lane states"
                                % (lanes, len(self.lanes) + 1))
        rest = len(self.lanes) - (lanes - 1)
        x = np.array([self.x] + self.lanes[rest:], dtype=np.int64)
        del self.lanes[rest:]
        for s, m, counts in blocks:
            # per node: ls, the numerator of its symbol's law; it emits lo
            # bits, one more from state cut on (`_emit_bounds`), and merges
            # as ((xs << R) + up) // ls: floor(xs*l / m) for a one,
            # ceil((xs+1)*l / ls) - 1 for a zero
            ls = np.where(s, m, l - m)
            lo = r - np.frexp(ls)[1]
            np.maximum(lo, 0, out=lo)
            cut = ls << (lo + 1)
            up = np.where(s, 0, l - 1)
            fields = np.zeros(s.shape, dtype=np.int64)
            nbits = np.zeros(s.shape, dtype=np.int64)
            for t in range(len(s) - 1, -1, -1):
                n = counts[t]
                xv, nb = x[:n], nbits[t, :n]
                np.add(lo[t, :n], xv >= cut[t, :n], out=nb)
                xs = xv >> nb
                np.subtract(xv, xs << nb, out=fields[t, :n])
                xs <<= r
                xs += up[t, :n]
                np.floor_divide(xs, ls[t, :n], out=xv)
            bits = _field_digits(fields.ravel(), nbits.ravel(), 1)
            self._emitted += bits[::-1].tobytes()
        seeds = _field_digits(x[1:] - l, np.full(lanes - 1, r), 1)
        self._emitted += seeds[::-1].tobytes()
        self.x = int(x[0])

    def finish(self) -> bytes:
        """Bits in original payload order, including the R state-seed bits,
        one byte each."""
        x = self.x
        if not self.l <= x < 2 * self.l:
            raise CorruptStream("state did not drain into the seed interval")
        if self.lanes:
            raise CorruptStream("%d lane states left unread" % len(self.lanes))
        emitted = self._emitted
        while x > 1:
            emitted.append(x & 1)
            x >>= 1
        emitted.reverse()
        return bytes(emitted)
