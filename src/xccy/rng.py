"""Random normals: one numpy SFC64 stream per factor of each simulation chunk.

The simulation mixes independent standard normal factors into its drivers
(``ValidatedModel.mixing``, lower triangular in its factor order). Factor
``k`` of chunk ``c`` (paths ``c * CHUNK_PATHS`` onwards) draws its normals
with numpy's ziggurat sampler, ``Generator.standard_normal``, from an SFC64
generator (:func:`chunk_stream`). Factor 0 is seeded by
``SeedSequence(entropy=seed mod 2**128, spawn_key=(c,))``, exactly the
sequence ``SeedSequence(seed mod 2**128).spawn(c + 1)[c]``; factor k >= 1 by
``spawn_key=(c, k)``, the k-th spawned child of that one. Spawned children
are numpy's recommended way to give parallel work independent streams
(NumPy's "Parallel random number generation" guide), and SFC64 is a
256-bit-state generator with a minimum period of 2**64 per stream (O'Neill
2014, PCG report, on stream independence). The seed is reduced modulo 2**128
so that any Python integer, negative included, names a stream. A model of
one driver reads factor 0 alone, so its chunks draw the streams they drew
when a chunk had one stream for all of its drivers.

A factor reads its stream in order, step-major: the normal of step j and
antithetic pair i sits at position j * pairs + i, where ``pairs`` is
ceil(count / 2) for a chunk of ``count`` paths. The simulation kernel draws
each factor one tile of consecutive steps at a time (:func:`normal_block`);
successive draws from one generator continue its stream, so the tiling does
not change a bit, and a pass draws only the factors its drivers read, so
the bits of a factor do not depend on which other factors are drawn. In
this order a path's normals depend on the width of its chunk: a ragged last
chunk does not draw a prefix of a full chunk's normals. The chunk widths are fixed by ``n_paths`` and
``CHUNK_PATHS`` alone, so a scenario is still a pure function of (model,
grid, n_paths, seed) and independent of the worker count.

NEP 19 lets numpy change the stream of a ``Generator`` method between
releases, unlike the raw bit-generator stream. The known-answer tests in
``tests/test_rng.py`` and ``tests/test_simulation.py`` are what catch such a
change.
"""

from __future__ import annotations

import numpy as np


def chunk_stream(seed: int, chunk: int, factor: int = 0) -> np.random.Generator:
    """The generator of factor ``factor`` of simulation chunk ``chunk``: SFC64 on a spawned child of the seed.

    Factor 0 is the ``chunk``-th child of the seed; factor k >= 1 is the
    k-th child of that child.
    """
    key = (chunk, factor) if factor else (chunk,)
    sequence = np.random.SeedSequence(entropy=int(seed) % 2**128, spawn_key=key)
    return np.random.Generator(np.random.SFC64(sequence))


def normal_block(stream: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill the C-contiguous float64 ``out`` with the next standard normals of ``stream``, and return it.

    The simulation kernel passes one factor's tile, shaped (1, tile_steps,
    pairs); see the module docstring for the order.
    """
    return stream.standard_normal(out=out)
