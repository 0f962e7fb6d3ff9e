"""Deterministic random-stream derivation for reproducible simulation.

Every source of randomness is a named substream keyed by
(base seed, role, time index). Trajectory i reads the i-th row of draws of
each (role, time) substream. A Generator fills arrays in a fixed element
order, and consecutive fills continue where the last one stopped, so row i
is the same whether the rows come in one block (noise_block) or in row
chunks from one Generator (substream, as rollouts read them), whatever the
number of trajectories or the chunk size. Policies that share one rollout
pass read each block once between them, so a policy's row i is still the
i-th draw of each substream, as in a pass of its own. That is what makes
batched and paired-seed runs reproducible.
"""
from __future__ import annotations

import numpy as np

# Noise roles inside a rollout. The initial state of a rollout that starts
# at time s reads the (ROLE_INIT_STATE, s) substream; s = 0 for every rollout
# but the open-loop ones that start at their first recorded time.
ROLE_INIT_STATE = 0
ROLE_PROCESS = 1
ROLE_INPUT = 2

# Tags for deriving independent child seeds for the learning stages.
TAG_PHASE1 = 11
TAG_PHASE3_LOOP = 31
TAG_PHASE3_INIT = 32
TAG_EVAL = 41
TAG_INSTANCE = 51


def noise_block(base_seed: int, role: int, time: int, n: int, dim: int) -> np.ndarray:
    """Standard normal block of shape (n, dim) for one (role, time) substream.

    Row i depends only on (base_seed, role, time, i), never on n.
    """
    return substream(base_seed, role, time).standard_normal((n, dim))


def substream(base_seed: int, role: int, time: int) -> np.random.Generator:
    """The Generator of one (role, time) substream; its k-th row of draws is row k
    of noise_block for the same key."""
    return generator(base_seed, role, time)


def derive_seed(base_seed: int, *tags: int) -> int:
    """Derive an independent 64-bit child seed from a base seed and integer tags."""
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(tags))
    return int(seq.generate_state(1, np.uint64)[0])


def generator(base_seed: int, *tags: int) -> np.random.Generator:
    """A plain Generator on a named substream, for non-rollout sampling."""
    seq = np.random.SeedSequence(entropy=base_seed, spawn_key=tuple(tags))
    return np.random.default_rng(seq)
