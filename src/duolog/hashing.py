"""Stable 64-bit hashing shared by the log partitioner and the
consistent-hash exchange.

The hash is FNV-1a over the input bytes.  It is a fixed, documented
function: the same data maps to the same value on every platform,
interpreter and run, which is what makes golden partition-assignment tests
possible.
"""

from __future__ import annotations

_FNV64_OFFSET = 0xCBF29CE484222325
_FNV64_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def stable_hash64(data: bytes) -> int:
    """FNV-1a 64-bit hash of `data`."""
    h = _FNV64_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV64_PRIME) & _MASK64
    return h
