"""Round-trip properties of the shared walk-draw-replay driver.

Both codecs write through `strip._write` and read back through
`strip._read`; every example must decode to exactly the payload bits the
encoder consumed and leave a valid lattice.  The profile is derandomized,
so the examples are the same on every run.
"""

from hypothesis import given, settings, strategies as hs

from latticecode import experiments as ex
from latticecode import lattice as lat
from latticecode import strip as st

HS = lat.hard_square()
PROFILE = settings(derandomize=True, deadline=None, database=None,
                   max_examples=100)
PAYLOADS = hs.lists(hs.integers(0, 1), max_size=96)

_strips = {}


def _strip(width, boundary):
    key = (width, boundary)
    if key not in _strips:
        _strips[key] = st.strip_model(HS, width, boundary)
    return _strips[key]


@PROFILE
@given(width=hs.integers(1, 6), boundary=hs.sampled_from(["zero", "cyclic"]),
       precision=hs.integers(1, 24), cols=hs.integers(1, 12), bits=PAYLOADS)
def test_strip_roundtrip(width, boundary, precision, cols, bits):
    codec = st.LatticeCodec(_strip(width, boundary), precision)
    res = codec.encode(bits, cols, partial=True)
    assert res.consumed <= len(bits)
    back = codec.decode(res.grid, res.final_state, res.consumed)
    assert back == bits[:res.consumed]
    if boundary == "zero":
        assert lat.scan(res.grid, HS) == []


@PROFILE
@given(rows=hs.integers(1, 12), cols=hs.integers(1, 12),
       q=hs.floats(0.0, 1.0), precision=hs.integers(1, 24), bits=PAYLOADS)
def test_algorithm1_roundtrip(rows, cols, q, precision, bits):
    res = ex.algorithm1_encode((rows, cols), q, bits, precision, partial=True)
    assert res.consumed <= len(bits)
    back = ex.algorithm1_decode(res.grid, q, res.final_state, res.consumed,
                                precision)
    assert back == bits[:res.consumed]
    assert lat.scan(res.grid, HS) == []
