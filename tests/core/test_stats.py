"""The shared nearest-rank percentile (repro.core.stats)."""

import pytest

from repro.core.stats import nearest_rank


@pytest.mark.parametrize("pct", [50, 90, 95, 99])
def test_nearest_rank_matches_definition(pct):
    """The p-th percentile is the smallest sample with at least p% of
    the samples at or below it: rank k = min{k : 100k >= p·n}."""
    for n in range(1, 61):
        ordered = [float(v) for v in range(1, n + 1)]
        rank = next(k for k in range(1, n + 1) if 100 * k >= pct * n)
        assert nearest_rank(ordered, pct) == rank, f"n={n}"
