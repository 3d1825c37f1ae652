"""The exact equal-size two-sample KS test behind `equivariance_check`."""

import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from levymix import errors
from levymix.experiments import ks_2samp_equal
from levymix.rng import stream


def _gaps(n):
    """(labels, k) per interleaving of two n-samples: the first sample's places, k = n * D."""
    out = []
    for first in itertools.combinations(range(2 * n), n):
        labels = np.zeros(2 * n, dtype=bool)
        labels[list(first)] = True
        walk = np.cumsum(np.where(labels, 1, -1))
        out.append((labels, int(np.abs(walk).max())))
    return out


@pytest.mark.parametrize("n", range(1, 7))
def test_ks_matches_enumerated_null_law(n):
    # Under the null every interleaving of the pooled sample is equally
    # likely, so P(D >= k/n) is the share of the C(2n, n) interleavings
    # whose largest count gap is at least k.
    gaps = _gaps(n)
    assert len(gaps) == math.comb(2 * n, n)
    tail = {k: Fraction(sum(g >= k for _, g in gaps), len(gaps))
            for k in range(1, n + 1)}
    seen = set()
    pooled = np.arange(2.0 * n)
    for labels, k in gaps:
        stat, p = ks_2samp_equal(pooled[labels], pooled[~labels])
        assert stat == k / n
        assert abs(p - tail[k]) <= 1e-15
        seen.add(k)
    assert seen == set(range(1, n + 1))


def _pairs():
    """(x1, x2) sample pairs at n from 1 to 10 000: continuous, tied, and k = 1."""
    rng = stream(23, "ks-pairs")
    sizes = sorted(set(range(1, 41)) | {int(v) for v in np.geomspace(41, 10_000, 40)})
    for n in sizes:
        shift = rng.choice([0.0, 0.05, 0.3]) * (1.0 + 10.0 / math.sqrt(n))
        x1, x2 = rng.standard_normal(n), rng.standard_normal(n) + shift
        yield x1, x2
        yield np.round(x1, 1), np.round(x2, 1)          # ties within and across
        yield np.floor(2 * x1), np.floor(2 * x2 + 1)    # few distinct values
        yield 2.0 * np.arange(n), 2.0 * np.arange(n) + 1.0  # interleaved: k = 1
    yield np.zeros(7), np.zeros(7)                      # k = 0


def test_ks_bits_match_scipy():
    # scipy.stats.ks_2samp is exact for equal sizes up to n = 10 000 and
    # nests the same alternating sum the same way, so the bits agree.
    # Where its sum rounds above 1 (it can only at P = 1 or within an ulp
    # of it) scipy drops to its asymptotic law and warns; the exact law
    # says 1 there, and ks_2samp_equal clips to it.
    pairs = fallbacks = 0
    for x1, x2 in _pairs():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ref = stats.ks_2samp(x1, x2)
        stat, p = ks_2samp_equal(x1, x2)
        assert type(stat) is float and type(p) is float
        assert np.float64(stat).tobytes() == np.float64(ref.statistic).tobytes()
        if any("Exact calculation unsuccessful" in str(w.message) for w in caught):
            fallbacks += 1
            assert p == 1.0
        else:
            assert not caught
            assert np.float64(p).tobytes() == np.float64(ref.pvalue).tobytes()
        pairs += 1
    assert fallbacks > 0 and pairs - fallbacks >= 250


def test_ks_rejects_bad_samples():
    for x1, x2 in (([1.0, 2.0], [1.0]), ([], []), ([], [1.0])):
        with pytest.raises(errors.InvalidArgument):
            ks_2samp_equal(x1, x2)
    for x in (np.zeros((2, 2)), 0.0):
        with pytest.raises(errors.DimensionMismatch):
            ks_2samp_equal(x, x)
    for x in ([0.0, np.nan], [np.nan, 0.0]):
        with pytest.raises(errors.NonFiniteInput):
            ks_2samp_equal([0.0, 1.0], x)
