"""Counter-based splittable random streams.

Streams are keyed by a (seed, *path) tuple hashed into a Philox key, so
any worker can rebuild its stream independently of evaluation order.
"""

import hashlib
import math

import numpy as np

from .matrices import _count


def stream_key(seed, *path):
    """Derive a stable 128-bit Philox key from a seed and a path of labels.
    Every seed is read here: an integer of any sign, not a bool."""
    parts = [str(_count(seed, "seed", least=-math.inf)), *map(str, path)]
    digest = hashlib.sha256("/".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def stream(seed, *path):
    """Independent Generator for the given (seed, *path) label."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *path)))
