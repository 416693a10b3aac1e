"""Counter-based uniform random streams for reproducible parallel sampling.

Every trial draws from a Philox stream addressed by ``(seed, lane, index)``,
so the value of trial ``i`` never depends on how many trials ran before it or
on how a batch was split across workers.  ``lane`` separates independent
decision streams within one trial family (e.g. the final outcome draw versus
per-stage absorption draws).  Seeds are 64-bit: any integer in [0, 2**64).
Each thread keeps one generator and re-keys it for every draw: only the key
``(seed, lane)`` and the block counter change, so nothing is rebuilt.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.random import Generator, Philox

from .errors import ContractError

# Philox-4x64 emits four 64-bit words per counter increment and Generator
# consumes exactly one word per float64, so trial i lives at counter i // 4,
# word i % 4.  Slices of the stream are therefore chunk-invariant.
_WORDS_PER_BLOCK = 4
_local = threading.local()  # one generator per thread, so threads never share a stream position


def _generator(seed: int, lane: int, block: int) -> Generator:
    """This thread's generator, set to where ``Philox(counter=[block, 0, 0, 0], key=[seed, lane])`` starts."""
    if (generator := getattr(_local, "generator", None)) is None:
        generator = _local.generator = Generator(Philox(0))
    # counter[0] is the low word; buffer_pos 4 is an empty buffer, so the first draw computes block + 1
    state = {"counter": [block, 0, 0, 0], "key": [seed, lane]}
    generator.bit_generator.state = {
        "bit_generator": "Philox", "state": state, "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0
    }
    return generator


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
