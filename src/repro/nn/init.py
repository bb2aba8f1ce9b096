"""Weight initialisers.

The paper initialises node/edge type embeddings with zeros and all
linear/attention weights with values drawn from uniform distributions
(Sec. 3.2.2); Xavier-style bounds are used so that forward variance is
preserved through deep stacks.
"""

from __future__ import annotations

import numpy as np


def zeros(shape: tuple) -> np.ndarray:
    """All-zero weights (the paper's type-embedding init)."""
    return np.zeros(shape, dtype=np.float64)


def xavier_uniform(shape: tuple, rng: np.random.Generator, gain: float = 1.0) -> np.ndarray:
    """Glorot/Xavier uniform initialisation for 2-D weight matrices."""
    if len(shape) < 2:
        fan_in = fan_out = shape[0]
    else:
        fan_in, fan_out = shape[0], shape[1]
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)

