"""Named, versioned randomness.

Every random draw in the lab flows through a Philox counter-based
generator keyed by (seed, purpose tag, extra), never by wall clock.  The
tag keeps independent uses (splits, batches, init, probe directions) from
colliding on the same stream, and the counter-based generator makes every
stream reproducible from its key alone.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

TAG_SPLIT = 1
TAG_BLOBS = 2
TAG_BATCH = 3
TAG_INIT = 4
TAG_DIRECTIONS = 5

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def check_seed(seed: int, name: str = "seed") -> None:
    """Reject a seed outside [0, 2**64), the width of the Philox key word."""
    if not 0 <= seed <= _MASK64:
        raise ConfigError(f"{name} must be in [0, 2**64), got {seed}")


def generator(seed: int, tag: int, extra: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, tag, extra), seed in [0, 2**64)."""
    check_seed(seed)
    key = np.array(
        [seed, ((tag & _MASK32) << 32) | (extra & _MASK32)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))
