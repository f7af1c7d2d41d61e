"""Property tests of contracts that hold for every input.

Examples are drawn with ``derandomize=True``, so every run checks the
same cases.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from sctubes.sup_solver import CovariateBox, FacePlan

REGIONS = ("point", "interval", "box", "whole")


def region(kind: str, p: int, rng) -> CovariateBox:
    """A point, a box with one free coordinate (an interval when p = 1),
    a box with every coordinate free, or the whole space."""
    if kind == "whole":
        return CovariateBox.whole_space(p)
    lows = rng.uniform(-5.0, 5.0, size=p)
    widths = rng.uniform(0.1, 10.0, size=p)
    if kind == "point":
        widths[:] = 0.0
    elif kind == "interval":
        widths[1:] = 0.0
    return CovariateBox(tuple(zip(lows, lows + widths)))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(p=st.integers(1, 3), m=st.integers(1, 3), kind=st.sampled_from(REGIONS),
       seed=st.integers(0, 2 ** 32 - 1))
def test_batched_sup_equals_one_at_a_time(p, m, kind, seed):
    """``FacePlan.sup`` over a stack agrees with ``sup_with_argmax`` on
    each numerator factor alone. The tolerance scales with the
    whole-space sup, since on a point box a numerator can nearly vanish
    and leave only rounding."""
    rng = np.random.default_rng(seed)
    half = rng.standard_normal((p + 1, p + 1))
    d = half @ half.T + 0.1 * np.eye(p + 1)
    factors = rng.standard_normal((m, p + 1, 32))
    plan = FacePlan(d, region(kind, p, rng))
    batched = plan.sup(factors)
    scale = FacePlan(d, CovariateBox.whole_space(p)).sup(factors)
    for b in range(factors.shape[2]):
        single, _ = plan.sup_with_argmax(factors[:, :, b])
        assert abs(batched[b] - single) <= 1e-12 * scale[b]
