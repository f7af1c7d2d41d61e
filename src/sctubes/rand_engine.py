"""Reproducible random sources for the Monte Carlo machinery.

Everything here is counter-based: a draw is a pure function of a
``(seed, replicate_index, substream)`` triple, never of how many draws
came before it. That is what lets the simulation engine run replicates
in any order, on any number of workers, sliced into any batch sizes,
and still produce bit-identical output.

The mapping onto numpy is ``Philox(key=[seed, substream],
counter=[0, 0, 0, replicate_index])``: the key separates logical
streams (substream 0 carries the Wishart noise, substream i >= 1 the
i-th group's normal matrix), while the counter jumps straight to a
replicate without generating its predecessors.

Each block function draws a whole batch from the generator at the
batch's first replicate index. A normal block fills element by
element, so a shorter block is a prefix of a longer one; a Wishart
factor block draws all diagonals before all off-diagonals, so its
content is pinned only for a fixed batch size. The engine therefore
always draws full fixed-size blocks and slices off what it needs.

Within one generator the draw order is pinned and documented per
function; changing it would silently change every downstream result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegreesOfFreedomTooSmall

_U64 = 1 << 64


@dataclass(frozen=True)
class StreamKey:
    """Address of one random stream position.

    Parameters
    ----------
    seed : int
        Run-level seed, 0 <= seed < 2**64.
    replicate_index : int
        Counter position, i.e. which Monte Carlo replicate (or which
        block start) this draw belongs to.
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
                raise ValueError(f"{name} out of range [0, 2**64): {v}")

    def generator(self) -> np.random.Generator:
        bits = np.random.Philox(
            key=[self.seed, self.substream],
            counter=[0, 0, 0, self.replicate_index],
        )
        return np.random.Generator(bits)


# Blocks draw `count` objects from the single generator at `key`; entry
# b is attributed to replicate key.replicate_index + b. Entry values are
# a pure function of (key, count), and for normals of key alone.

def normal_block(rows: int, cols: int, key: StreamKey, count: int) -> np.ndarray:
    """Draw ``count`` stacked rows x cols standard normal matrices."""
    if rows < 1 or cols < 1 or count < 1:
        raise ValueError("block dimensions must be positive")
    return key.generator().standard_normal((count, rows, cols))


def wishart_factor_block(m: int, nu: int, key: StreamKey, count: int) -> np.ndarray:
    """Draw ``count`` stacked lower-triangular Bartlett factors L, each
    with L L' distributed Wishart(identity, nu).

    Draw order within the generator: first all count x m diagonal
    chi-square variates (as gammas, replicate by replicate), then all
    count x m(m-1)/2 strict lower-triangle normals, row-major within
    each replicate.
    """
    if m < 1 or count < 1:
        raise ValueError("block dimensions must be positive")
    if nu < m:
        raise DegreesOfFreedomTooSmall(
            f"Wishart needs dof >= dimension, got dof={nu}, dimension={m}")
    rng = key.generator()
    dofs = nu - np.arange(m)
    chi = rng.standard_gamma(np.broadcast_to(dofs / 2.0, (count, m))) * 2.0
    L = np.zeros((count, m, m))
    L[:, np.arange(m), np.arange(m)] = np.sqrt(chi)
    if m > 1:
        ii, jj = np.tril_indices(m, -1)
        L[:, ii, jj] = rng.standard_normal((count, ii.size))
    return L
