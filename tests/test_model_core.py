"""Validation and least-squares fitting."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import make_dataset, make_group
from sctubes.errors import (
    DegenerateScatter,
    InputDataError,
    InsufficientObservations,
    InvalidArgument,
    RankDeficientDesign,
    ShapeMismatch,
)
from sctubes.model_core import (
    GroupData,
    GroupedDataset,
    fit_models,
    validate_dataset,
)
from sctubes.sct_engine import ComparisonFamily, compare
from sctubes.sup_solver import CovariateBox


def test_minimal_dataset_accepted():
    g = GroupData("only", np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0]]),
                  np.array([[0.1], [1.2], [1.9]]))
    data = GroupedDataset((g,))
    assert validate_dataset(data) is data
    assert (data.k, data.p, data.m) == (1, 1, 1)


def test_duplicated_covariate_is_rank_deficient():
    x = np.linspace(0, 1, 6)
    design = np.column_stack([np.ones(6), x, x])
    g = GroupData("dup", design, np.arange(6.0).reshape(-1, 1))
    with pytest.raises(RankDeficientDesign):
        validate_dataset(GroupedDataset((g,)))


def test_numerically_collinear_design_is_rank_deficient():
    # [1, x, x + 5.6e-9 z] factorizes by QR, but the Cholesky factor of
    # its cross-product inverse, which the simulation needs, can fail.
    rng = np.random.default_rng(7)
    x, z = rng.uniform(0.0, 1.0, 12), rng.standard_normal(12)
    design = np.column_stack([np.ones(12), x, x + 5.6e-9 * z])
    groups = tuple(GroupData(label, design, rng.standard_normal((12, 1)))
                   for label in "AB")
    with pytest.raises(RankDeficientDesign):
        fit_models(GroupedDataset(groups))


def test_zero_covariate_column_is_rank_deficient():
    design = np.column_stack([np.ones(6), np.linspace(0, 1, 6), np.zeros(6)])
    g = GroupData("zero", design, np.arange(6.0).reshape(-1, 1))
    with pytest.raises(RankDeficientDesign):
        validate_dataset(GroupedDataset((g,)))


@pytest.mark.parametrize("degree, low, high", [(2, 0.0, 1e4), (1, 1e6, 1e6 + 10)])
def test_raw_unit_designs_fit_and_compare(degree, low, high):
    # Columns of very different size, or a covariate far from zero: the
    # raw singular value ratio is tiny, but with columns scaled to unit
    # norm the design is well conditioned, so it fits and simulates.
    rng = np.random.default_rng(11)
    groups = []
    for label in "AB":
        x = rng.uniform(low, high, 30)
        design = np.column_stack([x ** d for d in range(degree + 1)])
        groups.append(GroupData(label, design, rng.standard_normal((30, 1))))
    fit = fit_models(GroupedDataset(tuple(groups)))
    box = (CovariateBox.interval(low, high) if degree == 1
           else CovariateBox.whole_space(degree))
    report = compare(fit, ComparisonFamily.pairwise(2), box, 0.05, 1000, 0)
    assert np.isfinite(report.critical.c_hat)
    assert 0.0 <= report.pairs[0].p_value <= 1.0


def test_mismatched_response_counts():
    a = GroupData("a", np.column_stack([np.ones(5), np.arange(5.0)]),
                  np.ones((5, 2)))
    b = GroupData("b", np.column_stack([np.ones(5), np.arange(5.0)]),
                  np.ones((5, 3)))
    with pytest.raises(ShapeMismatch):
        validate_dataset(GroupedDataset((a, b)))


def test_too_few_rows():
    g = GroupData("tiny", np.array([[1.0, 0.0], [1.0, 1.0]]),
                  np.array([[0.0], [1.0]]))
    with pytest.raises(InsufficientObservations):
        validate_dataset(GroupedDataset((g,)))


def test_missing_intercept_column():
    g = GroupData("noint", np.array([[2.0, 0.0], [1.0, 1.0], [1.0, 2.0]]),
                  np.zeros((3, 1)))
    with pytest.raises(ShapeMismatch):
        validate_dataset(GroupedDataset((g,)))


def test_non_finite_values_rejected():
    design = np.column_stack([np.ones(4), np.arange(4.0)])
    y = np.zeros((4, 1))
    y[2, 0] = np.nan
    with pytest.raises(InputDataError):
        validate_dataset(GroupedDataset((GroupData("nan", design, y),)))


def test_noise_free_fit_recovers_exactly_and_flags_scatter():
    rng = np.random.default_rng(0)
    coef = np.array([[1.0, -2.0], [0.3, 0.7]])
    data = make_dataset(rng, (12, 15), (coef, coef), noise=0.0)
    fit = fit_models(data)
    for bhat in fit.bhat:
        np.testing.assert_allclose(bhat, coef, atol=1e-10)
    assert np.abs(fit.pooled_scatter).max() <= 1e-12
    assert fit.scatter_degenerate
    with pytest.raises(DegenerateScatter):
        fit.require_scatter()


def test_nu_adds_per_group_residual_dof():
    rng = np.random.default_rng(1)
    coef = np.array([[1.0, 2.0], [0.5, -0.3]])
    fit2 = fit_models(make_dataset(rng, (87, 161), (coef, coef)))
    assert fit2.nu == 244
    fit3 = fit_models(make_dataset(rng, (87, 80, 81), (coef, coef, coef)))
    assert fit3.nu == 242


def test_residual_orthogonality_random_instances():
    rng = np.random.default_rng(2)
    for _ in range(20):
        k = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        sizes = [int(rng.integers(p + 3, 40)) for _ in range(k)]
        coefs = [rng.standard_normal((p + 1, m)) for _ in range(k)]
        data = make_dataset(rng, sizes, coefs, noise=2.0)
        fit = fit_models(data)
        for g, bhat in zip(data.groups, fit.bhat):
            resid = g.response - g.design @ bhat
            scale = max(np.abs(g.response).max(), 1.0)
            assert np.abs(g.design.T @ resid).max() <= 1e-8 * scale


def test_pooled_scatter_is_residual_cross_product_sum():
    rng = np.random.default_rng(3)
    coef = np.array([[0.0, 1.0], [1.0, -1.0]])
    data = make_dataset(rng, (10, 20), (coef, coef))
    fit = fit_models(data)
    total = np.zeros((2, 2))
    for g, bhat in zip(data.groups, fit.bhat):
        resid = g.response - g.design @ bhat
        total += resid.T @ resid
    np.testing.assert_allclose(fit.pooled_scatter, total, rtol=1e-12)
    np.testing.assert_allclose(fit.pooled_scatter, fit.pooled_scatter.T)
    assert fit.nu == (10 - 2) + (20 - 2)


def test_univariate_fit_matches_normal_equations():
    # Independent oracle: solve X'X b = X'y directly.
    rng = np.random.default_rng(4)
    for _ in range(10):
        data = make_dataset(rng, [25], [rng.standard_normal((3, 1))])
        fit = fit_models(data)
        g = data.groups[0]
        oracle = np.linalg.solve(g.design.T @ g.design, g.design.T @ g.response)
        np.testing.assert_allclose(fit.bhat[0], oracle, rtol=1e-10)


def test_response_recoding_equivariance():
    rng = np.random.default_rng(5)
    coef = np.array([[1.0, 2.0], [0.5, -0.3]])
    data = make_dataset(rng, (15, 18), (coef, coef + 1.0))
    fit = fit_models(data)
    c = np.array([[2.0, 1.0], [0.0, -1.0]])
    recoded = GroupedDataset(tuple(
        GroupData(g.label, g.design, g.response @ c) for g in data.groups))
    refit = fit_models(recoded)
    for b0, b1 in zip(fit.bhat, refit.bhat):
        np.testing.assert_allclose(b1, b0 @ c, rtol=1e-10)
    np.testing.assert_allclose(refit.pooled_scatter,
                               c.T @ fit.pooled_scatter @ c, rtol=1e-10)


def test_gram_matrices_and_inverses():
    rng = np.random.default_rng(6)
    data = make_dataset(rng, [30], [np.array([[1.0], [2.0]])])
    fit = fit_models(data)
    g = data.groups[0]
    np.testing.assert_allclose(fit.gram[0], g.design.T @ g.design, rtol=1e-12)
    np.testing.assert_allclose(fit.gram[0] @ fit.gram_inv[0], np.eye(2),
                               atol=1e-10)


def test_delta_and_coef_difference_are_one_based():
    rng = np.random.default_rng(7)
    coef = np.array([[1.0], [0.0]])
    data = make_dataset(rng, (10, 12), (coef, coef))
    fit = fit_models(data)
    np.testing.assert_allclose(fit.delta(1, 2),
                               fit.gram_inv[0] + fit.gram_inv[1])
    np.testing.assert_allclose(fit.coef_difference(2, 1),
                               fit.bhat[1] - fit.bhat[0])
    with pytest.raises(InvalidArgument):
        fit.delta(0, 1)
    with pytest.raises(InvalidArgument):
        fit.coef_difference(1, 3)


def test_fit_is_deterministic():
    rng = np.random.default_rng(8)
    data = make_dataset(rng, (11, 13), (np.zeros((2, 1)), np.zeros((2, 1))))
    f1, f2 = fit_models(data), fit_models(data)
    for a, b in zip(f1.bhat, f2.bhat):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(f1.pooled_scatter, f2.pooled_scatter)
