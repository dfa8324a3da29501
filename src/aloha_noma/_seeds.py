"""Frame seed states for ``protocol.run_session``, hashed a block of frames at
a time.

PCG64 asks its seed sequence for ``generate_state(4, np.uint64)`` and nothing
else, so ``np.random.default_rng`` builds an int seed's own stream from a
holder of that state (``SeedState``): numpy still seeds PCG64 and makes every
draw.  Only ``SeedSequence``'s pool hash is written out here.  Its constants
do not depend on the entropy, so it runs as uint32 column arithmetic over
all the seeds of a block at once.

This module imports ``numpy.random``, which numpy loads on first use, so
``protocol`` imports it when a session runs, not at the CLI's start-up.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# frames whose seed states run_session hashes in one pass; a block's states
# and estimation seeds take 72 bytes per frame, whatever the session's length,
# and with the hash's temporaries a block of 512 stays well under 0.1 MB
BLOCK = 512

# numpy's SeedSequence hash (bit_generator.pyx) over a pool of 4 uint32 words
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


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


def frame_states(frame_seeds: np.ndarray) -> Iterator[SeedState]:
    """One holder per frame seed, in order, with its estimation seed's holder.
    The states are hashed ``BLOCK`` frames at a time; each estimation seed is
    drawn by numpy's ``integers`` on the frame's own generator."""
    for first in range(0, frame_seeds.size, BLOCK):
        seeds = frame_seeds[first : first + BLOCK]
        frames = states(seeds)
        # the block holds arrays only; each frame's ints are made as it runs
        drawn = np.fromiter(
            (
                np.random.default_rng(SeedState(seed, state)).integers(0, 2**63 - 1)
                for seed, state in zip(map(int, seeds), frames)
            ),
            dtype=np.int64,
            count=seeds.size,
        )
        for seed, state, estimation_seed, estimation_state in zip(
            map(int, seeds), frames, map(int, drawn), states(drawn)
        ):
            yield SeedState(seed, state, SeedState(estimation_seed, estimation_state))
