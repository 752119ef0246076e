"""Seeded random-stream derivation shared by samplers and Monte Carlo loops."""

from __future__ import annotations

import numpy as np

from .special import _check_count


def derive_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Return stream ``stream`` of the family rooted at ``seed``.

    Stream k is PCG64 seeded with ``SeedSequence([seed, k])``. Distinct
    streams are statistically independent, so chunked Monte Carlo work can
    be partitioned across workers and still reproduce the single-threaded
    result bit for bit.
    """
    entropy = [_check_count("seed", seed, 0), _check_count("stream index", stream, 0)]
    return np.random.default_rng(np.random.SeedSequence(entropy))
