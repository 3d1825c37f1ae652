"""Counter-based splittable random streams.

Streams are keyed by a (seed, *path) tuple hashed into a Philox key, so
any worker can rebuild its stream independently of evaluation order.
"""

import hashlib
import operator

import numpy as np

from .errors import InvalidArgument


def stream_key(seed, *path):
    """Derive a stable 128-bit Philox key from a seed and a path of labels.
    Every seed is read here: an integer of any sign, not a bool."""
    try:
        if isinstance(seed, bool):
            raise TypeError
        parts = [str(operator.index(seed)), *map(str, path)]
    except TypeError:
        raise InvalidArgument(f"seed must be an integer, got {seed!r}") from None
    digest = hashlib.sha256("/".join(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def stream(seed, *path):
    """Independent Generator for the given (seed, *path) label."""
    return np.random.Generator(np.random.Philox(key=stream_key(seed, *path)))
