"""Named, splittable random streams.

Every random quantity in the package flows from one user-facing integer
seed through a derivation path such as ``("rep", 3, "train")``.  Paths map
to independent ``SeedSequence`` children, so components, repetitions, and
restarts never share a stream and results do not depend on execution
order.  Normal variates come from numpy's ``Generator.standard_normal``
(PCG64 + ziggurat), so a given release reproduces byte-identical draws.
"""

from __future__ import annotations

import hashlib

import numpy as np

_TOKEN_BYTES = 4


def _token_to_int(token: int | str) -> int:
    if isinstance(token, (int, np.integer)):
        if token < 0:
            raise ValueError("integer path tokens must be non-negative")
        return int(token)
    digest = hashlib.sha256(str(token).encode("utf-8")).digest()
    return int.from_bytes(digest[:_TOKEN_BYTES], "big")


def seed_sequence(seed: int, *path: int | str) -> np.random.SeedSequence:
    """SeedSequence for the child stream named by ``path`` under ``seed``."""
    key = tuple(_token_to_int(t) for t in path)
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


def generator(seed: int, *path: int | str) -> np.random.Generator:
    """Fresh PCG64 generator for the named child stream."""
    return np.random.Generator(np.random.PCG64(seed_sequence(seed, *path)))


def child_seed(seed: int, *path: int | str) -> int:
    """Collapse a named child stream to a plain integer seed (64-bit)."""
    state = seed_sequence(seed, *path).generate_state(2, np.uint32)
    return (int(state[0]) << 32) | int(state[1])
