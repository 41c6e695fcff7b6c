"""Shared test helpers."""

import pytest

from latticecode import ans
from latticecode import lattice as lat
from latticecode import strip as st


@pytest.fixture(autouse=True)
def empty_module_caches():
    """Each test starts as a new process does: with no codec strip
    (`strip.codec_strip`), no keyed ANS table (`ans._keyed_table`) and no
    broken-line gate (`lattice._broken_line`) left from an earlier test."""
    st.codec_strip.cache_clear()
    ans._keyed_table.cache_clear()
    lat._broken_line.cache_clear()


class RecordingCoder:
    """A coder for a walk over a written grid: `draw` records each law and
    replays the grid's next free symbol in visiting order, and `run(m, k)`
    records k laws of m and replays the next k, as bytes as the coder's
    `run` returns them."""

    def __init__(self, free_symbols):
        self.symbols = iter(free_symbols)
        self.laws = []

    def draw(self, m):
        self.laws.append(m)
        return next(self.symbols)

    def run(self, m, k):
        self.laws += [m] * k
        return bytes(next(self.symbols) for _ in range(k))


def assert_walk_matches_gather(walk, laws, symbols, R):
    """The encoder's walk, replayed over a written grid's symbols in
    visiting order, is the oracle for the decoder's gathered laws: the laws
    it hands the coder are the gathered free laws in order, every forced
    gathered law is l * symbol, and it places the grid's symbols."""
    l = 1 << R
    laws = laws.tolist()
    free = [0 < m < l for m in laws]
    coder = RecordingCoder([s for s, f in zip(symbols, free) if f])
    assert list(walk(coder)) == symbols
    assert coder.laws == [m for m, f in zip(laws, free) if f]
    assert all(m == l * s for m, s, f in zip(laws, symbols, free) if not f)


@pytest.fixture
def walk_oracle():
    return assert_walk_matches_gather


def scalar_quantize(p: float, l: int) -> int:
    """The law of one node whose one-probability is p, as a scalar rule:
    0 or l when p forces a symbol, else the nearest m/l (`round`, half to
    even) clamped so both symbols stay codable.  The reference for
    `strip._quantize`."""
    if p == 0.0:
        return 0
    if p == 1.0:
        return l
    return min(max(round(p * l), 1), l - 1)


@pytest.fixture
def quantize():
    return scalar_quantize
