"""Random normals: one numpy Philox stream per simulation chunk.

Chunk ``c`` of the simulation (paths ``c * CHUNK_PATHS`` onwards) draws its
normals with numpy's ziggurat sampler, ``Generator.standard_normal``, from a
Philox-4x64-10 generator keyed by the seed reduced modulo 2**128 (``Philox``
rejects a negative key) and started at counter ``[0, c, 0, 0]``. The draws
fill (row, step, driver) in C order. Paths come in antithetic pairs: path p
of a chunk uses row p // 2 with sign (-1)**p, so a chunk of ``count`` paths
draws ceil(count / 2) rows, and ``CHUNK_PATHS`` is even so that no pair
spans two chunks. A ragged last chunk, odd or even, draws a prefix of a full
chunk's rows, and a path's normals are a pure function of (seed, path,
n_steps, n_drivers, ``CHUNK_PATHS``): fixed by the scenario identity and
independent of the worker count. Two chunks' streams differ in counter word
1 and could only overlap after more than 2**64 blocks in one chunk.

NEP 19 lets numpy change the stream of a ``Generator`` method between
releases, unlike the raw bit-generator stream. The known-answer tests in
``tests/test_rng.py`` and ``tests/test_simulation.py`` are what catch such a
change.
"""

from __future__ import annotations

import numpy as np


def normal_block(seed: int, chunk: int, count: int, n_steps: int, n_drivers: int) -> np.ndarray:
    """The first ``count`` rows of standard normals of simulation chunk ``chunk``.

    Returns shape (count, n_steps, n_drivers); row i drives the antithetic
    pair of paths 2i and 2i + 1. See the module docstring for the stream of
    each chunk.
    """
    bits = np.random.Philox(key=int(seed) % 2**128, counter=[0, chunk, 0, 0])
    return np.random.Generator(bits).standard_normal((count, n_steps, n_drivers))
