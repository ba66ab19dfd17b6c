"""Named, seedable random streams.

Every stochastic routine in this package takes an explicit
``numpy.random.Generator``.  Experiments construct their generators
through :func:`named_stream` so that a ``(seed, stream-name)`` pair fully
determines every draw, independently of how many other streams exist or
in which order they are consumed.  The Philox bit generator is
counter-based, so streams with distinct keys are statistically
independent and reproducible across platforms.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _name_hash(name: str) -> int:
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def named_stream(seed: int, name: str) -> np.random.Generator:
    """Return the generator for stream `name` under `seed`.

    The Philox key combines the seed (high 64 bits) with a hash of the
    stream name (low 64 bits), so renaming or reordering streams never
    perturbs another stream's draws.
    """
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError("seed must be an integer")
    key = ((seed & _MASK64) << 64) | _name_hash(name)
    return np.random.Generator(np.random.Philox(key=key))
