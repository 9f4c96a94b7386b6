"""Seeded random streams shared by every module.

A stream is keyed by the user seed (reduced mod 2**32, so negative and
large seeds are accepted) followed by small nonnegative integers naming its
purpose, e.g. ``seeded_rng(seed, 42, iteration)``.  The key is handed to
numpy as a ``uint32`` array: that gives exactly the stream of the plain
list ``[seed % 2**32, *key]`` and is cheaper to construct, which matters
to callers that make many short streams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["seeded_rng"]


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream ``(seed mod 2**32, *key)``; key entries < 2**32."""
    return np.random.default_rng(np.array([seed % 2**32, *key], dtype=np.uint32))
