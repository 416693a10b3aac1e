"""Counter-based uniform random streams for reproducible parallel sampling.

Every trial draws from a Philox stream addressed by ``(seed, lane, index)``,
so the value of trial ``i`` never depends on how many trials ran before it or
on how a batch was split across workers.  ``lane`` separates independent
decision streams within one trial family (e.g. the final outcome draw versus
per-stage absorption draws).  Seeds are 64-bit: any integer in [0, 2**64).
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

from .errors import ContractError

# Philox-4x64 emits four 64-bit words per counter increment and Generator
# consumes exactly one word per float64, so trial i lives at counter i // 4,
# word i % 4.  Slices of the stream are therefore chunk-invariant.
_WORDS_PER_BLOCK = 4


def _generator(seed: int, lane: int, block: int) -> Generator:
    key = np.array([np.uint64(seed), np.uint64(lane)], dtype=np.uint64)
    counter = np.array([block, 0, 0, 0], dtype=np.uint64)  # counter[0] is the low word
    return Generator(Philox(counter=counter, key=key))


def check_stream(seed: int, start: int, count: int) -> None:
    """Refuse a seed outside [0, 2**64) and trial indices ``start .. start+count-1``
    outside [0, 2**66): the block counter is one 64-bit word with four trials per block."""
    if not 0 <= seed < 2**64:
        raise ContractError(f"seed {seed} is outside [0, 2**64)")
    if start < 0 or count < 0 or start + count > _WORDS_PER_BLOCK * 2**64:
        raise ContractError(f"{count} trials from index {start} leave the stream's indices [0, 2**66)")


def uniforms(seed: int, lane: int, start: int, count: int) -> np.ndarray:
    """Uniform [0, 1) values for trial indices ``start .. start+count-1``.

    Concatenating adjacent slices reproduces the whole stream bit for bit.
    """
    check_stream(seed, start, count)
    if count == 0:
        return np.empty(0, dtype=np.float64)
    block, offset = divmod(start, _WORDS_PER_BLOCK)
    vals = _generator(seed, lane, block).random(offset + count)
    return vals[offset:]


def uniform(seed: int, lane: int, index: int) -> float:
    """The single uniform value for one trial index."""
    return float(uniforms(seed, lane, index, 1)[0])
