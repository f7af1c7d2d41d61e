"""Reproducible random sources for the Monte Carlo machinery.

Every draw is a pure function of a ``(seed, substream, replicate_index)``
key, never of how many draws came before it. That is what lets the
simulation engine run replicates in any order, on any number of
workers, sliced into any batch sizes, and still produce bit-identical
output.

Each key seeds its own generator: ``SFC64(SeedSequence(words))``, where
``words`` are the three 64-bit key fields written as six little-endian
32-bit words. The width is fixed so that no two keys share entropy:
``SeedSequence`` given the plain tuples ``(2**32, 0, 5)`` and
``(0, 1, 5 * 2**32)`` sees the same words and yields the same stream.
The engine keys every block by its first replicate index, so no
generator ever has to skip ahead; substream 0 carries the Wishart
noise and substream i >= 1 the i-th group's normal matrices.

Each block function draws a whole batch from the generator at its key.
A normal block fills element by element, so a shorter block is a prefix
of a longer one; a Wishart factor block draws one diagonal's variates
for the whole batch before the next, so its content is pinned only for
a fixed batch size. The engine therefore always draws full fixed-size
blocks and slices off what it needs. A normal block stacks its matrices
replicate index first, (count, rows, cols), in draw order; a Wishart
factor block stacks them replicate index last, (m, m, count), the
layout the engine whitens with, so a block's first ``count`` replicates
are the view ``[..., :count]``. Both fill a caller's array when
given one (``out=``), as numpy's generators do: the engine draws every
block of a worker into the same buffers, and the values are those of a
freshly returned array.

Within one generator the draw order is pinned and documented per
function. ``STREAM_VERSION`` names this scheme: a change to any draw
order, the generator or the key changes every downstream result, so it
must come with a new version, which simulated samples and reports
carry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
# Imported here, not on a block's first draw: numpy loads numpy.random
# lazily, and the import then lands in the first simulation's time.
from numpy.random import SFC64, Generator, SeedSequence

from .errors import DegreesOfFreedomTooSmall, InvalidArgument

STREAM_VERSION = 2

_U64 = 1 << 64


@dataclass(frozen=True)
class StreamKey:
    """Address of one random stream.

    Parameters
    ----------
    seed : int
        Run-level seed, 0 <= seed < 2**64.
    replicate_index : int
        Which Monte Carlo replicate (or which block start) this draw
        belongs to.
    substream : int
        Logical channel within the run. The simulation engine uses 0
        for the shared Wishart draw and i for group i's normal matrix.
    """

    seed: int
    replicate_index: int = 0
    substream: int = 0

    def __post_init__(self):
        for name in ("seed", "replicate_index", "substream"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise TypeError(f"{name} must be an integer, got {v!r}")
            if not 0 <= v < _U64:
                raise InvalidArgument(f"{name} out of range [0, 2**64): {v}")

    def generator(self) -> Generator:
        words = np.array([self.seed, self.substream, self.replicate_index],
                         dtype="<u8").view("<u4")
        return Generator(SFC64(SeedSequence(words)))


# Blocks draw `count` objects from the single generator at `key`; entry
# b is attributed to replicate key.replicate_index + b. Entry values are
# a pure function of (key, count), and for normals of key alone.

def normal_block(rows: int, cols: int, key: StreamKey, count: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """Draw ``count`` stacked rows x cols standard normal matrices, into
    ``out`` (a C-contiguous float array of that shape) when given."""
    if rows < 1 or cols < 1 or count < 1:
        raise InvalidArgument("block dimensions must be positive")
    return key.generator().standard_normal((count, rows, cols), out=out)


def wishart_factor_block(m: int, nu: int, key: StreamKey, count: int,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Draw ``count`` lower-triangular Bartlett factors L, each with L L'
    distributed Wishart(identity, nu), stacked replicate index last as
    an (m, m, count) array (into ``out``, a C-contiguous float array of
    that shape, upper triangle included, when given), so that each
    factor entry is one contiguous vector.

    Draw order within the generator: for each diagonal k = 0 .. m-1 in
    turn, ``count`` gamma variates of shape (nu - k) / 2, one per
    replicate (doubled, their square roots are the chi(nu - k)
    diagonal); then all count x m(m-1)/2 strict lower-triangle normals,
    row-major within each replicate. The normals are drawn a whole
    number of replicates at a time through one row of scratch, which
    continues the same stream.
    """
    if m < 1 or count < 1:
        raise InvalidArgument("block dimensions must be positive")
    if nu < m:
        raise DegreesOfFreedomTooSmall(
            f"Wishart needs dof >= dimension, got dof={nu}, dimension={m}")
    if out is None:
        out = np.empty((m, m, count))
    elif out.shape != (m, m, count):
        raise InvalidArgument(f"out must have shape {(m, m, count)}, got {out.shape}")
    rng = key.generator()
    for k in range(m):
        diag = out[k, k]
        rng.standard_gamma((nu - k) / 2.0, out=diag)
        diag *= 2.0
        np.sqrt(diag, out=diag)
    if m > 1:
        ii, jj = np.tril_indices(m, -1)
        out[jj, ii] = 0.0
        scratch = np.empty(max(count, ii.size))
        step = scratch.size // ii.size
        for lo in range(0, count, step):
            hi = min(lo + step, count)
            normals = scratch[:(hi - lo) * ii.size].reshape(hi - lo, ii.size)
            out[ii, jj, lo:hi] = rng.standard_normal(out=normals).T
    return out
