"""Random normals: one numpy SFC64 stream per simulation chunk.

Chunk ``c`` of the simulation (paths ``c * CHUNK_PATHS`` onwards) draws its
normals with numpy's ziggurat sampler, ``Generator.standard_normal``, from an
SFC64 generator seeded by ``SeedSequence(entropy=seed mod 2**128,
spawn_key=(c,))`` (:func:`chunk_stream`). That is exactly the sequence
``SeedSequence(seed mod 2**128).spawn(c + 1)[c]``: the chunks' streams are
spawned children of one root, numpy's recommended way to give parallel work
independent streams (NumPy's "Parallel random number generation" guide),
and SFC64 is a 256-bit-state generator with a minimum period of 2**64 per
stream (O'Neill 2014, PCG report, on stream independence). The seed is
reduced modulo 2**128 so that any Python integer, negative included, names
a stream.

A chunk reads its stream in order, time-major: the normals of step j, driver
k and antithetic pair i sit at flat position (j * n_drivers + k) * pairs + i,
where ``pairs`` is ceil(count / 2) for a chunk of ``count`` paths. The
simulation kernel draws them one mixing tile of consecutive steps at a time
(:func:`normal_block`); successive draws from one generator continue its
stream, so the tiling does not change a bit. In this order a path's normals
depend on the width of its chunk: a ragged last chunk does not draw a prefix
of a full chunk's normals. The chunk widths are fixed by ``n_paths`` and
``CHUNK_PATHS`` alone, so a scenario is still a pure function of (model,
grid, n_paths, seed) and independent of the worker count.

NEP 19 lets numpy change the stream of a ``Generator`` method between
releases, unlike the raw bit-generator stream. The known-answer tests in
``tests/test_rng.py`` and ``tests/test_simulation.py`` are what catch such a
change.
"""

from __future__ import annotations

import numpy as np


def chunk_stream(seed: int, chunk: int) -> np.random.Generator:
    """The generator of simulation chunk ``chunk``: SFC64 on the ``chunk``-th spawned child of the seed."""
    sequence = np.random.SeedSequence(entropy=int(seed) % 2**128, spawn_key=(chunk,))
    return np.random.Generator(np.random.SFC64(sequence))


def normal_block(stream: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous float64 ``out`` with the next standard normals of ``stream``, and return it.

    The simulation kernel passes one mixing tile, shaped (tile_steps,
    n_drivers, pairs); see the module docstring for the order.
    """
    return stream.standard_normal(out=out)
