"""Frame seed states for ``protocol.run_session``, hashed a block of frames at
a time.

PCG64 asks its seed sequence for ``generate_state(4, np.uint64)`` and nothing
else, so ``np.random.default_rng`` builds an int seed's own stream from a
holder of that state (``SeedState``): numpy still seeds PCG64 and makes every
draw of a frame.  Written out here are ``SeedSequence``'s pool hash and the
frame generator's first draw, the estimation seed: its PCG64 seeding and first
step (O'Neill, 2014) and numpy's bounded ``integers`` (Lemire, 2019).  Their
constants do not depend on the seed, so both run as column arithmetic over
all the seeds of a block at once, the hash in uint32 words and the draw in
uint64 words.

This module imports ``numpy.random``, which numpy loads on first use, so
``protocol`` imports it when a session runs, not at the CLI's start-up.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# frames whose seed states run_session hashes in one pass; a block's states
# and estimation seeds take 72 bytes per frame, whatever the session's length,
# and with the temporaries of the hash and of the first draws a block of 512
# stays under 0.1 MB
BLOCK = 512

# numpy's SeedSequence hash (bit_generator.pyx) over a pool of 4 uint32 words
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715

# PCG64's 128-bit LCG multiplier (pcg64.h), as its high and low uint64 words
_MULT_HI, _MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


def states(seeds: np.ndarray) -> np.ndarray:
    """Row k is ``np.random.SeedSequence(seeds[k]).generate_state(4, np.uint64)``,
    for int64 seeds in [0, 2**63), with each seed's two little-endian uint32
    words as two entropy words (a zero high word gives the one-word seed's
    pool).  numpy's scalar constants are Python ints masked to 32 bits, so
    only uint32 arrays wrap and nothing warns."""
    words = seeds.astype("<i8", copy=False).view("<u4").reshape(-1, 2)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        mixed = value ^ hash_const
        hash_const = hash_const * _MULT_A & _M32
        mixed *= hash_const
        return mixed ^ (mixed >> 16)

    # the pool words past the entropy hash a zero
    zero = np.zeros(len(words), dtype=np.uint32)
    pool = [hashmix(column) for column in (words[:, 0], words[:, 1], zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * hashmix(pool[src])
                pool[dst] = mixed ^ (mixed >> 16)
    state = np.empty((len(words), 8), dtype="<u4")
    hash_const = _INIT_B
    for i in range(8):
        mixed = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        mixed *= hash_const
        state[:, i] = mixed ^ (mixed >> 16)
    return state.view("<u8").astype(np.uint64, copy=False)


class SeedState(ISeedSequence):
    """``np.random.SeedSequence(seed).generate_state(4, np.uint64)``, hashed
    beforehand by ``states``, for ``np.random.default_rng``.  A frame's holder
    carries the holder of the estimation seed its generator draws first, or
    None."""

    __slots__ = ("seed", "state", "estimation")

    def __init__(self, seed: int, state: np.ndarray, estimation: SeedState | None = None):
        self.seed, self.state, self.estimation = seed, state, estimation

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("only generate_state(4, np.uint64) is precomputed")
        return self.state


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, ``state * M + inc`` mod 2**128, on uint64 word columns.
    The high word of ``lo`` times M's low word comes from 32-bit halves,
    whose products and partial sums each fit in 64 bits."""
    lo0, lo1 = lo & _M32, lo >> 32
    low = lo0 * (_MULT_LO & _M32)
    mid = lo1 * (_MULT_LO & _M32) + (low >> 32)
    mid2 = lo0 * (_MULT_LO >> 32) + (mid & _M32)
    carried = lo1 * (_MULT_LO >> 32) + (mid >> 32) + (mid2 >> 32)
    hi = carried + lo * _MULT_HI + hi * _MULT_LO
    lo = lo * _MULT_LO + inc_lo
    return hi + inc_hi + (lo < inc_lo), lo


def estimation_seeds(frames: np.ndarray) -> np.ndarray:
    """Row k is ``int(np.random.default_rng(SeedState(s, frames[k])).integers(0,
    2**63 - 1))``, the frame's first draw, for any rows of ``states``.

    PCG64 takes ``initstate = w0 << 64 | w1`` and ``initseq = w2 << 64 | w3``,
    sets ``inc = initseq << 1 | 1`` and ``state = (inc + initstate) * M +
    inc``; the first word ``x`` is the XSL-RR output of ``state * M + inc``.
    numpy's Lemire bound gives ``x * (2**63 - 1) >> 64``, which is ``(x >> 1)
    - (x > (x & 1) << 63)``, unless the product's low word is below 2, that is
    when ``x`` is 0 or 2**63 - 1: numpy then draws again and the row here is
    not its seed.  ``run_frame`` checks every estimation seed against its own
    draw, so such a row costs a fallback, never a wrong frame.  Only uint64
    arrays wrap, so nothing warns."""
    initstate_hi, initstate_lo, initseq_hi, initseq_lo = frames.T
    inc_hi, inc_lo = initseq_hi << 1 | initseq_lo >> 63, initseq_lo << 1 | 1
    lo = inc_lo + initstate_lo
    hi = inc_hi + initstate_hi + (lo < inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    # XSL-RR: the two words xor-ed, rotated right by the state's top 6 bits
    rotation, folded = hi >> 58, hi ^ lo
    word = folded >> rotation | folded << (64 - rotation & 63)
    return ((word >> 1) - (word > (word & 1) << 63)).view(np.int64)


def frame_states(frame_seeds: np.ndarray) -> Iterator[SeedState]:
    """One holder per frame seed, in order, with its estimation seed's holder.
    The states and estimation seeds are computed ``BLOCK`` frames at a time,
    so no frame's generator is built here."""
    for first in range(0, frame_seeds.size, BLOCK):
        seeds = frame_seeds[first : first + BLOCK]
        frames = states(seeds)
        drawn = estimation_seeds(frames)
        # the block holds arrays only; each frame's ints are made as it runs
        for seed, state, estimation_seed, estimation_state in zip(
            map(int, seeds), frames, map(int, drawn), states(drawn)
        ):
            yield SeedState(seed, state, SeedState(estimation_seed, estimation_state))
