"""Deterministic random number generation.

Everything that needs randomness (splits, weight init, bootstraps, epoch
shuffles) draws from this one generator so runs are reproducible bit for
bit from a seed. The update is the splitmix64 mix; uniform doubles take
the top 53 bits.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TO_UNIT = 2.0**-53


class SplitMix64:
    """64-bit splitmix64 stream; state advances by the golden-gamma step."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def random(self) -> float:
        """Uniform double in [0, 1): top 53 bits scaled by 2**-53."""
        return (self.next_uint64() >> 11) * _TO_UNIT

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def _block(self, size: int) -> np.ndarray:
        """The next `size` next_uint64 draws, bit for bit, at once."""
        return _blocks([self], size)[0]

    def uniform_array(self, low: float, high: float, size: int) -> np.ndarray:
        """The next `size` uniform(low, high) draws, bit for bit, at once."""
        z = self._block(size)
        return low + (high - low) * ((z >> np.uint64(11)).astype(np.float64) * _TO_UNIT)

    def randrange(self, n: int) -> int:
        """Integer in [0, n) via modulo reduction."""
        return self.next_uint64() % n

    def randrange_array(self, n: int, size: int) -> np.ndarray:
        """The next `size` randrange(n) draws, bit for bit, at once, as
        int64 (so n is at most 2**63)."""
        return (self._block(size) % np.uint64(n)).astype(np.int64)

    def shuffle(self, seq) -> None:
        """In-place Fisher-Yates: i from n-1 down to 1, j = next() mod (i+1)."""
        for i in range(len(seq) - 1, 0, -1):
            j = self.next_uint64() % (i + 1)
            seq[i], seq[j] = seq[j], seq[i]


def _blocks(streams, size: int) -> np.ndarray:
    """(len(streams), size): row t is the next `size` next_uint64 draws of
    streams[t], bit for bit. The k-th draw is mix(state + k * gamma), so the
    whole block is computed in wrapping uint64 arithmetic; each stream's
    state ends where `size` scalar draws leave it."""
    z = np.array([s._state for s in streams], dtype=np.uint64)[:, None]
    z = z + np.arange(1, size + 1, dtype=np.uint64) * np.uint64(_GAMMA)
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX2)
    z ^= z >> np.uint64(31)
    for s in streams:
        s._state = (s._state + size * _GAMMA) & _MASK64
    return z


def sample_indices(streams, n: int, k: int) -> np.ndarray:
    """(len(streams), min(k, n)) int64: row t holds k distinct indices from
    range(n), ascending, drawn from streams[t] by rejection (each draw is
    next_uint64() % n, a repeat is drawn again) until k are distinct, or
    all of range(n), with no draw, when k >= n.

    Every stream's first k draws come from one block across the streams;
    a stream among whose first k draws a value repeats goes on drawing one
    value at a time from where the block left it, so each row and each
    stream's state are those of the scalar loop.
    """
    if k >= n:
        return np.tile(np.arange(n, dtype=np.int64), (len(streams), 1))
    picked = np.sort(_blocks(streams, k) % np.uint64(n), axis=1).astype(np.int64)
    for t in np.flatnonzero((picked[:, 1:] == picked[:, :-1]).any(axis=1)).tolist():
        chosen = set(picked[t].tolist())
        while len(chosen) < k:
            chosen.add(streams[t].next_uint64() % n)
        picked[t] = sorted(chosen)
    return picked
