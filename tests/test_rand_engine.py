"""Keyed stream determinism and distributional sanity of the block samplers
the simulation engine draws from."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
import scipy.stats as st

from conftest import make_dataset, wishart_factors
from sctubes.classical_tests import largest_root_null_sample
from sctubes.errors import DegreesOfFreedomTooSmall, InvalidArgument
from sctubes.model_core import fit_models
from sctubes.rand_engine import (
    STREAM_VERSION,
    StreamKey,
    normal_block,
    wishart_factor_block,
)
from sctubes.sct_engine import ComparisonFamily, simulate_pivot
from sctubes.sup_solver import CovariateBox


def chi_square_block(dof: int, key: StreamKey, count: int) -> np.ndarray:
    """Squared m = 1 Bartlett factors: chi-square(dof) variates."""
    return wishart_factor_block(1, dof, key, count)[0, 0] ** 2


def test_normal_matrix_deterministic():
    key = StreamKey(seed=123, replicate_index=45, substream=6)
    a = normal_block(3, 4, key, 5)
    b = normal_block(3, 4, key, 5)
    assert a.shape == (5, 3, 4)
    np.testing.assert_array_equal(a, b)


def test_normal_matrix_varies_with_replicate():
    a = normal_block(2, 2, StreamKey(seed=1, replicate_index=0), 3)
    b = normal_block(2, 2, StreamKey(seed=1, replicate_index=1), 3)
    assert not np.array_equal(a, b)


def test_normal_matrix_varies_with_seed_and_substream():
    base = normal_block(2, 2, StreamKey(seed=1, replicate_index=0, substream=0), 3)
    assert not np.array_equal(
        base, normal_block(2, 2, StreamKey(seed=2, replicate_index=0, substream=0), 3))
    assert not np.array_equal(
        base, normal_block(2, 2, StreamKey(seed=1, replicate_index=0, substream=1), 3))


def test_normal_moments():
    # 1.2 x 10^6 pooled entries; bounds are generous multiples of the CLT sd.
    draws = normal_block(2, 3, StreamKey(seed=9), 200_000)
    assert abs(draws.mean()) <= 0.005
    assert abs(draws.var() - 1.0) <= 0.01
    # Entries of one matrix are independent: no correlation across cells.
    cells = draws.reshape(-1, 6)
    assert np.abs(np.corrcoef(cells.T) - np.eye(6)).max() <= 0.015


def test_normal_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        normal_block(0, 3, StreamKey(seed=0), 1)
    with pytest.raises(ValueError):
        normal_block(3, -1, StreamKey(seed=0), 1)
    with pytest.raises(ValueError):
        normal_block(3, 2, StreamKey(seed=0), 0)


def test_stream_key_validation():
    with pytest.raises(ValueError):
        StreamKey(seed=-1)
    with pytest.raises(ValueError):
        StreamKey(seed=2 ** 64)
    with pytest.raises(TypeError):
        StreamKey(seed=1.5)


def test_chi_square_deterministic():
    key = StreamKey(seed=5, replicate_index=17)
    np.testing.assert_array_equal(chi_square_block(244, key, 16),
                                  chi_square_block(244, key, 16))


def test_chi_square_rejects_bad_dof():
    with pytest.raises(DegreesOfFreedomTooSmall):
        wishart_factor_block(1, 0, StreamKey(seed=0), 4)
    with pytest.raises(DegreesOfFreedomTooSmall):
        wishart_factor_block(1, -3, StreamKey(seed=0), 4)
    with pytest.raises(ValueError):
        wishart_factor_block(0, 5, StreamKey(seed=0), 4)


def test_chi_square_moments_dof_244():
    # One million draws. Bounds from the stated +-2.1 / +-7 envelopes
    # (far beyond 3 sigma for this n).
    draws = chi_square_block(244, StreamKey(seed=3), 1_000_000)
    assert abs(draws.mean() - 244.0) <= 2.1
    assert abs(draws.var() - 488.0) <= 7.0


def test_chi_square_dof1_matches_analytic_cdf():
    draws = chi_square_block(1, StreamKey(seed=8), 100_000)
    stat = st.kstest(draws, st.chi2(1).cdf)
    assert stat.pvalue > 0.01


def test_wishart_m1_is_a_chi_square_draw():
    # For m = 1 the Bartlett factor collapses to the square root of one
    # gamma draw per replicate, the first draws of the stream, so the
    # match with a direct chi-square draw is exact.
    key = StreamKey(seed=7, replicate_index=3)
    lf = wishart_factor_block(1, 50, key, 32)
    assert lf.shape == (1, 1, 32)
    chi = key.generator().standard_gamma(np.full(32, 25.0)) * 2.0
    np.testing.assert_array_equal(lf[0, 0], np.sqrt(chi))


def test_wishart_deterministic_and_pd():
    key = StreamKey(seed=2, replicate_index=9)
    l1 = wishart_factors(3, 10, key, 64)
    l2 = wishart_factors(3, 10, key, 64)
    np.testing.assert_array_equal(l1, l2)
    w = l1 @ np.transpose(l1, (0, 2, 1))
    np.testing.assert_allclose(w, np.transpose(w, (0, 2, 1)))
    assert np.linalg.eigvalsh(w).min() > 0


def test_wishart_rejects_small_dof():
    with pytest.raises(DegreesOfFreedomTooSmall):
        wishart_factor_block(3, 2, StreamKey(seed=0), 10)
    with pytest.raises(DegreesOfFreedomTooSmall):
        wishart_factor_block(4, 3, StreamKey(seed=0), 10)


def test_wishart_factor_matches_identity():
    # L L' is the identity-scale Wishart of the Bartlett decomposition,
    # rebuilt here from the documented draw order: the diagonal
    # chi-squares one row at a time (dof nu - i in row i, one draw per
    # replicate), then the strict lower triangle row by row.
    key = StreamKey(seed=11, replicate_index=4)
    m, nu, count = 3, 20, 8
    lf = wishart_factors(m, nu, key, count)
    assert np.allclose(lf, np.tril(lf))
    rng = key.generator()
    chi = np.column_stack([rng.standard_gamma((nu - i) / 2.0, count) * 2.0
                           for i in range(m)])
    below = rng.standard_normal((count, 3))
    for b in range(count):
        ref = np.diag(np.sqrt(chi[b]))
        ref[1, 0], ref[2, 0], ref[2, 1] = below[b]
        np.testing.assert_array_equal(lf[b], ref)


def test_wishart_mean_and_trace_m2_nu244():
    # E[W] = nu I. Diagonal entries are chi-square(244) with variance
    # 488; off-diagonals have variance 244. 3 sigma of the mean over
    # 10^5 draws: 0.21 and 0.148. trace ~ chi-square(m nu).
    n = 100_000
    lf = wishart_factors(2, 244, StreamKey(seed=4), n)
    w = lf @ np.transpose(lf, (0, 2, 1))
    mean = w.mean(axis=0)
    assert abs(mean[0, 0] - 244.0) <= 0.21
    assert abs(mean[1, 1] - 244.0) <= 0.21
    assert abs(mean[0, 1]) <= 0.15
    traces = w[:, 0, 0] + w[:, 1, 1]
    assert abs(traces.mean() - 488.0) <= 0.3
    assert abs(traces.var() - 976.0) <= 45.0


def test_normal_block_prefix_property():
    # A shorter block is a bitwise prefix of a longer one from the same
    # key; this is what lets the engine slice full blocks safely.
    key = StreamKey(seed=6, replicate_index=8192)
    short = normal_block(2, 3, key, 10)
    long = normal_block(2, 3, key, 25)
    np.testing.assert_array_equal(short, long[:10])


def test_wishart_block_fixed_count_deterministic():
    key = StreamKey(seed=6, replicate_index=0)
    a = wishart_factors(2, 30, key, 64)
    b = wishart_factors(2, 30, key, 64)
    np.testing.assert_array_equal(a, b)
    # Every factor is lower triangular with a positive diagonal.
    assert np.allclose(a, np.tril(a))
    assert (a[:, [0, 1], [0, 1]] > 0).all()


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_blocks_fill_a_callers_array_as_they_return_one(m):
    # The engine draws every block of a worker into the same buffers:
    # whatever a buffer held, it ends with the values, zero upper
    # triangle included, of a freshly returned block.
    key = StreamKey(seed=6, replicate_index=8192, substream=2)
    for count in (1, 3, 100):
        buf = np.full((m, m, count), np.nan)
        got = wishart_factor_block(m, m + 4, key, count, out=buf)
        assert got is buf
        np.testing.assert_array_equal(got, wishart_factor_block(m, m + 4, key, count))
        buf = np.full((count, 2, m), np.nan)
        got = normal_block(2, m, key, count, out=buf)
        assert got is buf
        np.testing.assert_array_equal(got, normal_block(2, m, key, count))
    # A wrong count, or the replicate-first layout, is refused.
    with pytest.raises(InvalidArgument):
        wishart_factor_block(m, m + 4, key, 3, out=np.empty((m, m, 4)))
    with pytest.raises(InvalidArgument):
        wishart_factor_block(m, m + 4, key, 4, out=np.empty((4, m, m)))


def test_block_draws_differ_across_substreams():
    a = normal_block(2, 2, StreamKey(seed=1, replicate_index=0, substream=1), 4)
    b = normal_block(2, 2, StreamKey(seed=1, replicate_index=0, substream=2), 4)
    assert not np.array_equal(a, b)


# --- stream version pin -----------------------------------------------------

def _digest(values: np.ndarray, dtype: str) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=dtype).tobytes()).hexdigest()


def _pinned_outputs() -> dict[str, np.ndarray]:
    """Two blocks and two samples whose values fix every draw order."""
    key = StreamKey(seed=2020, replicate_index=8192, substream=3)
    rng = np.random.default_rng(505)
    coef = np.array([[1.0, 2.0], [0.5, -0.3]])
    fit = fit_models(make_dataset(rng, (20, 24), (coef, coef)))
    sample = simulate_pivot(fit, ComparisonFamily.pairwise(2),
                            CovariateBox.interval(0.0, 10.0), 20_000, seed=7)
    return {
        "normal_block": normal_block(2, 3, key, 16),
        "wishart_factor_block": wishart_factors(3, 160, key, 16),
        "simulate_pivot": sample.values,
        "largest_root_null_sample": largest_root_null_sample(8, 3, 40, 20_000, seed=7),
    }


# sha256 of each output's little-endian bytes, per stream version. A
# change to a generator, a key or a draw order fails here until
# STREAM_VERSION is bumped and the new digests are pinned under it. The
# blocks are hashed as float64, a Wishart factor block in its logical
# (count, m, m) order. The samples also pass through BLAS and
# libm, whose last bits may differ between platforms, so they are hashed
# rounded to float32: a draw change moves every replicate far more.
PINNED = {
    2: {
        "normal_block":
            "4339750d98172a722ea3d347553233c73a23e2395a5a8b0e54f02b6d9a20d873",
        "wishart_factor_block":
            "09b44095836ae3e2466bc2831eda9febbed491edf6b49191f1fdbc254e1f9272",
        "simulate_pivot":
            "c30604257ecdc87e5f72a434e6a3e6c8e83a471397324f330b3dbac89773b8de",
        "largest_root_null_sample":
            "371efd553ef4d00aa43b0bd014e005ac356e1d680afd358a341b781caf0718bf",
    },
    # Version 3 draws the same blocks and derives group 1's normal
    # matrices from the other groups', so only the tube sample moves.
    3: {
        "normal_block":
            "4339750d98172a722ea3d347553233c73a23e2395a5a8b0e54f02b6d9a20d873",
        "wishart_factor_block":
            "09b44095836ae3e2466bc2831eda9febbed491edf6b49191f1fdbc254e1f9272",
        "simulate_pivot":
            "5f96085dd35ac0a2c48a886649cbf66ff0b2906fcf69a3f9c61a9996ba76bccd",
        "largest_root_null_sample":
            "371efd553ef4d00aa43b0bd014e005ac356e1d680afd358a341b781caf0718bf",
    },
}


def test_stream_version_pins_every_draw_order():
    got = {name: _digest(values, "<f8" if name.endswith("block") else "<f4")
           for name, values in _pinned_outputs().items()}
    assert got == PINNED[STREAM_VERSION]


def test_keys_that_alias_as_plain_seed_tuples_give_different_streams():
    # SeedSequence((2**32, 0, 5)) and SeedSequence((0, 1, 5 * 2**32)) see
    # the same 32-bit words; the fixed-width key keeps them apart.
    a = normal_block(2, 3, StreamKey(seed=2 ** 32, replicate_index=5, substream=0), 16)
    b = normal_block(2, 3, StreamKey(seed=0, replicate_index=5 * 2 ** 32, substream=1), 16)
    assert not np.array_equal(a, b)
