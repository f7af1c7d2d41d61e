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
noise and substream i >= 2 the i-th group's normal matrices. The tube
does not draw substream 1: the engine derives group 1's normal
matrices from the other groups' (``sct_engine._SimPlan``), so a
replicate of k groups with p covariates and m responses takes
(k-1)(p+1)m normals besides its Wishart factor. (Roy's null sampler
draws a second Bartlett factor there.)

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
given one (``out=``), as numpy's generators do: the engine draws its
blocks into reused buffers, and the values are those of a freshly
returned array. Each returns finished values, Bartlett factors and not
their variates, so the engine's draw stage, in whichever thread it
runs, hands its compute stage nothing left to assemble.

Within one generator the draw order is pinned and documented per
function. ``STREAM_VERSION`` names this scheme: a change to any draw
order, the generator, the key or the way the engine maps draws to
groups changes every downstream result, so it must come with a new
version, which simulated samples and reports carry. Version 3 derives
group 1's matrices; version 2 drew them on substream 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
# Imported here, not on a block's first draw: numpy loads numpy.random
# lazily, and the import then lands in the first simulation's time.
from numpy.random import SFC64, Generator, SeedSequence

from .errors import DegreesOfFreedomTooSmall, InvalidArgument

STREAM_VERSION = 3

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
        for the shared Wishart draw and i >= 2 for group i's normal
        matrix.
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


@lru_cache(maxsize=None)
def _strict_lower(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of an m x m strict lower triangle, row by
    row, as ``np.tril_indices(m, -1)`` gives them, made once per m (a
    call costs about 14 us, a tenth of a block's draw of one gamma row).
    Read-only, since every block shares them."""
    rows_cols = np.tril_indices(m, -1)
    for a in rows_cols:
        a.setflags(write=False)
    return rows_cols


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
    row-major within each replicate, in one call.
    """
    if m < 1 or count < 1:
        raise InvalidArgument("block dimensions must be positive")
    if nu < m:
        raise DegreesOfFreedomTooSmall(
            f"Wishart needs dof >= dimension, got dof={nu}, dimension={m}")
    if out is None:
        out = np.empty((m, m, count))
    elif out.shape != (m, m, count) or not out.flags.c_contiguous:
        raise InvalidArgument(f"out must be C-contiguous of shape {(m, m, count)}, "
                              f"got {out.shape}")
    rng = key.generator()
    for k in range(m):
        rng.standard_gamma((nu - k) / 2.0, out=out[k, k])
    lower = rng.standard_normal((count, m * (m - 1) // 2))
    # Every diagonal at once, as one strided (m, count) view.
    diag = out.reshape(m * m, count)[::m + 1]
    diag *= 2.0
    np.sqrt(diag, out=diag)
    if m > 1:
        ii, jj = _strict_lower(m)
        out[jj, ii] = 0.0
        out[ii, jj] = lower.T
    return out
