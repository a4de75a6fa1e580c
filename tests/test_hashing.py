"""Golden values pin the hash: it must never change between runs or releases,
or partition assignments of keyed flows would silently move."""

from duolog.hashing import stable_hash64

# frozen from the first computation; any change here is a breaking change
GOLDEN = {
    b"": 0xCBF29CE484222325,
    b"a": 0xAF63DC4C8601EC8C,
    b"user42": 0xF7F68BAA7501E4C0,
    b"a.b.c": 0x066327B5131E437F,
}


def test_golden_vectors():
    for data, expected in GOLDEN.items():
        assert stable_hash64(data) == expected, data
