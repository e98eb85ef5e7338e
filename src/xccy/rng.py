"""Stateless counter-based random numbers (Philox-4x64-10, numpy's C kernel).

The variate for (path p, step s, driver d) is word ``d % 4`` of the Philox
block at the flat 256-bit counter

    word0 = (p * n_steps + s) * n_blocks + d // 4,  words 1-3 = 0,

with ``n_blocks = ceil(n_drivers / 4)``, keyed by the seed (reduced modulo
2**128). A draw is therefore a pure function of (seed, path, step, driver,
n_steps, n_drivers): fixed by the scenario identity (model, grid, n_paths,
seed), and independent of how paths are split into chunks or across workers.
A contiguous range of paths is a contiguous range of counters, read by one
``np.random.Philox(...).random_raw`` call. numpy pre-increments the counter
before its first block, so the generator starts one below the first counter;
below counter 0 that wraps to the all-ones counter.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

_MOD128 = 1 << 128
_MOD256 = 1 << 256


def _to_uniform(bits: np.ndarray) -> np.ndarray:
    """Map uint64 words to doubles in the open interval (0, 1)."""
    u = (bits >> np.uint64(11)).astype(np.float64)
    u *= 2.0**-53
    u += 2.0**-54
    return u


def normal_block(seed: int, first: int, count: int, n_steps: int, n_drivers: int) -> np.ndarray:
    """Standard normals for paths ``first .. first + count - 1``.

    Returns shape (count, n_steps, n_drivers); see the module docstring for
    the counter of each variate.
    """
    n_blocks = max(1, -(-n_drivers // 4))
    start = first * n_steps * n_blocks
    gen = np.random.Philox(key=int(seed) % _MOD128, counter=(start - 1) % _MOD256)
    bits = gen.random_raw(count * n_steps * n_blocks * 4)
    uniforms = _to_uniform(bits).reshape(count, n_steps, n_blocks * 4)[:, :, :n_drivers]
    return ndtri(uniforms)
