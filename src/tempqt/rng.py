"""Deterministic counter-based randomness.

Every random decision in the package flows from a single integer seed.
Draw i of a stream is ``mix64(seed + (i+1) * GOLDEN)`` where ``mix64`` is
the splitmix64 finalizer; the stream is therefore a pure function of
(seed, counter) with no hidden state, which keeps outputs bit-identical
across runs and platforms and lets independent subsystems derive their
own seeds without consuming each other's draws.

Gaussians come from the Box-Muller transform over pairs of uniform
draws, so noise fields are reproducible down to the last bit as well.
"""

from __future__ import annotations

import numpy as np

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

# one draw in [0,1) is (mix64 >> 11) * 2**-53
_U53 = 1.0 / (1 << 53)


def mix64(z: int) -> int:
    """splitmix64 output function on a 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _fnv1a(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


def derive_seed(base: int, *tokens) -> int:
    """Derive an independent 64-bit seed from a base seed and tokens.

    Tokens may be ints or strings; the same (base, tokens) always yields
    the same seed, and distinct token tuples yield unrelated streams.
    """
    state = mix64((base & _MASK) ^ _GOLDEN)
    for tok in tokens:
        if isinstance(tok, str):
            h = _fnv1a(tok)
        elif isinstance(tok, (int, np.integer)):
            h = int(tok) & _MASK
        else:
            raise TypeError(f"seed token must be int or str, got {type(tok)!r}")
        state = mix64(state ^ h)
    return state


def _mix64_array(z: np.ndarray) -> np.ndarray:
    z = z.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
    return z


class CounterRng:
    """Stateful view over the stateless counter stream of one seed."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._counter = 0

    def _raw(self, n: int) -> np.ndarray:
        start = self._counter + 1
        self._counter += n
        counters = np.arange(start, start + n, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = np.uint64(self.seed) + counters * np.uint64(_GOLDEN)
        return _mix64_array(z)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        return (self._raw(n) >> np.uint64(11)).astype(np.float64) * _U53

    def random(self) -> float:
        """One double in [0, 1): the value ``uniform(1)[0]`` would give, without numpy."""
        self._counter += 1
        return (mix64(self.seed + self._counter * _GOLDEN) >> 11) * _U53

    def normal(self, n: int) -> np.ndarray:
        """n standard normal doubles via Box-Muller."""
        m = (n + 1) // 2
        # u1 shifted into (0, 1] so the log is always defined
        u1 = ((self._raw(m) >> np.uint64(11)).astype(np.float64) + 1.0) * _U53
        u2 = (self._raw(m) >> np.uint64(11)).astype(np.float64) * _U53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * m, dtype=np.float64)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:n]

    def randint(self, bound: int) -> int:
        """One integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return min(int(self.random() * bound), bound - 1)

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = min(int(self.random() * (i + 1)), i)
            items[i], items[j] = items[j], items[i]

    def truncated_normal(self, n: int, std: float) -> np.ndarray:
        """Zero-mean normals with deviation std, clipped at two sigma."""
        return np.clip(self.normal(n) * std, -2.0 * std, 2.0 * std)
