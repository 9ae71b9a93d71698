"""Deterministic seeded randomness.

All randomness in the workbench flows from one session seed through named
substreams: stream(seed, "lift-root", "translate") always yields the same
sequence, on every platform and Python version. The generator is SplitMix64,
implemented here so reproducibility does not depend on stdlib internals.
"""

import hashlib

from .errors import ParameterViolation

_MASK64 = (1 << 64) - 1


class Rng:
    """SplitMix64 pseudo-random stream."""

    def __init__(self, state: int):
        self._state = state & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ParameterViolation("randrange needs n >= 1")
        # rejection sampling to avoid modulo bias, over one 64-bit word for
        # n <= 2^64 and enough whole words to cover n above that
        words = 1 if n <= _MASK64 + 1 else -(-n.bit_length() // 64)
        span = 1 << (64 * words)
        limit = span - 1 - span % n
        while True:
            u = 0
            for _ in range(words):
                u = (u << 64) | self.next_u64()
            if u <= limit:
                return u % n

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b] inclusive."""
        return a + self.randrange(b - a + 1)


def stream(seed: int, *names: str) -> Rng:
    """Derive an independent substream from a session seed and stage names."""
    label = str(seed) + "/" + "/".join(names)
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return Rng(int.from_bytes(digest[:8], "little"))
