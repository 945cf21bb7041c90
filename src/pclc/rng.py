"""Seedable randomness, owned by whoever runs the experiment.

All stochastic pieces (initialization, dropout, shuffling, split sampling)
take an explicit numpy Generator; nothing touches global random state. The
generator is PCG64 under `make_rng`, a documented, seedable algorithm.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))
