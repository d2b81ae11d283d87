"""Deterministic seed derivation.

Every stochastic step in the toolkit draws from a seed derived from the
master seed plus a path of labels/indices (e.g. ("fold", 3, "sampler")).
Two runs with the same master seed therefore consume independent random
streams in the same order regardless of execution order or parallelism.
"""

from __future__ import annotations

import numpy as np

_LABELS: dict[str, int] = {}


def _encode(part: object) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part)
    if isinstance(part, str):
        # stable mapping of path labels to integers
        if part not in _LABELS:
            code = int.from_bytes(part.encode("utf-8")[:8], "little")
            clash = [other for other, c in _LABELS.items() if c == code]
            if clash:
                raise ValueError(f"seed labels {clash[0]!r} and {part!r} encode to the same integer (first 8 bytes)")
            _LABELS[part] = code
        return _LABELS[part]
    raise TypeError(f"seed path parts must be int or str, got {type(part).__name__}")


def derive_seed(master: int, *path: object) -> int:
    """Derive a child seed from `master` and a path of labels/indices."""
    entropy = [int(master)] + [_encode(p) for p in path]
    seq = np.random.SeedSequence(entropy)
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def rng_for(master: int, *path: object) -> np.random.Generator:
    """Generator seeded by derive_seed(master, *path)."""
    return np.random.default_rng(derive_seed(master, *path))
