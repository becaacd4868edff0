"""Ground spaces, truncation, sampling, exact laws, and the Mecke identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from poisson_ou import (
    BudgetExceededError,
    Configuration,
    GroundSpace,
    SemigroupEngine,
    TruncatedStateSpace,
    check_mecke,
    sample_configurations,
)
from poisson_ou.ground import _min_cap


class TestGroundSpace:
    def test_basic_fields(self):
        space = GroundSpace((1.0, 0.5, 2.0))
        assert space.atom_count == 3
        assert space.total_mass == pytest.approx(3.5)
        assert np.allclose(space.weight_array(), [1.0, 0.5, 2.0])

    @pytest.mark.parametrize("weights", [(), (0.0,), (-1.0,), (math.inf,), (math.nan,)])
    def test_rejects_bad_weights(self, weights):
        with pytest.raises(ValueError):
            GroundSpace(weights)


class TestConfiguration:
    def test_total_and_array(self):
        c = Configuration((2, 0, 3))
        assert c.total == 5
        assert c.array().dtype == np.int64

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            Configuration((1, -1))


class TestTruncation:
    def test_caps_cover_tail_mass(self):
        space = GroundSpace((1.0, 4.0))
        trunc = TruncatedStateSpace.from_tail_mass(space, tail_mass=1e-12)
        per_atom = 1e-12 / 2
        for lam, cap in zip(space.weights, trunc.caps):
            assert stats.poisson.sf(cap, lam) <= per_atom
            # one level lower would not suffice
            assert stats.poisson.sf(cap - 1, lam) > per_atom

    def test_state_count_and_shape(self):
        space = GroundSpace((1.0, 1.0))
        trunc = TruncatedStateSpace.from_tail_mass(space)
        assert trunc.state_count() == np.prod([n + 1 for n in trunc.caps])
        assert trunc.shape == tuple(n + 1 for n in trunc.caps)

    def test_budget_enforced(self):
        space = GroundSpace((50.0,) * 4)
        with pytest.raises(BudgetExceededError):
            TruncatedStateSpace.from_tail_mass(space, budget=100)

    @pytest.mark.parametrize("tail", [1e-18, 1e-30])
    def test_min_cap_below_ppf_resolution(self, tail):
        # 1 - tail rounds to 1, so ppf(1 - tail) is inf; compare with a scan of sf
        brute = next(n for n in range(1000) if stats.poisson.sf(n, 1.0) <= tail)
        assert _min_cap(1.0, tail) == brute

    @pytest.mark.parametrize("tail", [0.0, 1.0, 1.5, -1e-3, math.nan, math.inf])
    def test_rejects_bad_tail_mass(self, tail):
        with pytest.raises(ValueError):
            TruncatedStateSpace.from_tail_mass(GroundSpace((1.0,)), tail_mass=tail)

    def test_larger_intensity_needs_larger_caps(self):
        small = TruncatedStateSpace.from_tail_mass(GroundSpace((0.5,)))
        large = TruncatedStateSpace.from_tail_mass(GroundSpace((5.0,)))
        assert large.caps[0] > small.caps[0]


class TestSampling:
    def test_reproducible(self):
        space = GroundSpace((1.0, 2.0))
        a = sample_configurations(space, 500, seed=42)
        b = sample_configurations(space, 500, seed=42)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        space = GroundSpace((1.0, 2.0))
        a = sample_configurations(space, 500, seed=1)
        b = sample_configurations(space, 500, seed=2)
        assert not np.array_equal(a, b)

    def test_marginal_means(self):
        space = GroundSpace((1.0, 3.0))
        samples = sample_configurations(space, 200_000, seed=0)
        means = samples.mean(axis=0)
        # 4 sigma of the Poisson sample mean
        for mean, lam in zip(means, space.weights):
            assert abs(mean - lam) < 4 * math.sqrt(lam / 200_000)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_seed_determinism_property(self, seed):
        space = GroundSpace((0.7,))
        assert np.array_equal(
            sample_configurations(space, 50, seed),
            sample_configurations(space, 50, seed),
        )


class TestPoissonLaw:
    """The exact engine's law, restricted to the declared truncation."""

    def test_product_of_pmfs(self):
        space = GroundSpace((1.0, 0.5))
        trunc = TruncatedStateSpace.from_tail_mass(space)
        engine = SemigroupEngine(space, trunc)
        law = engine.interior(engine.law)
        assert law.shape == trunc.shape
        expected = np.outer(
            stats.poisson.pmf(np.arange(trunc.caps[0] + 1), 1.0),
            stats.poisson.pmf(np.arange(trunc.caps[1] + 1), 0.5),
        )
        assert np.allclose(law, expected, rtol=0, atol=1e-15)

    def test_mass_is_one_up_to_tail(self):
        space = GroundSpace((2.0,))
        trunc = TruncatedStateSpace.from_tail_mass(space, tail_mass=1e-12)
        engine = SemigroupEngine(space, trunc)
        law = engine.interior(engine.law)
        assert abs(law.sum() - 1.0) <= 1e-12


class TestMecke:
    def test_constant_h_exact(self):
        # h = 1: both sides equal the total mass
        space = GroundSpace((1.0, 2.5))
        report = check_mecke(space, lambda c, i: 1.0)
        assert report.ok
        assert report.lhs == pytest.approx(space.total_mass, abs=1e-9)

    def test_count_h_exact(self):
        # h(c, i) = c_i: E sum c_i^2 = sum (lam_i + lam_i^2),
        # shifted side sum lam_i E[c_i + 1] = sum lam_i(lam_i + 1)
        space = GroundSpace((1.0, 3.0))
        report = check_mecke(space, lambda c, i: float(np.asarray(c)[i]))
        assert report.ok
        expected = sum(lam + lam**2 for lam in space.weights)
        assert report.lhs == pytest.approx(expected, abs=1e-8)

    def test_exponential_h_exact(self):
        space = GroundSpace((1.0,))
        report = check_mecke(space, lambda c, i: math.exp(-0.3 * float(np.asarray(c)[0])))
        assert report.ok
        # E[c e^{-0.3 c}] for c ~ Poisson(1), via the derivative of the pgf
        s = math.exp(-0.3)
        expected = s * math.exp(s - 1.0)
        assert report.lhs == pytest.approx(expected, abs=1e-9)

    def test_mc_mode_agrees(self):
        space = GroundSpace((1.0, 0.5))
        report = check_mecke(
            space, lambda c, i: math.exp(-0.2 * float(np.asarray(c)[i])),
            mode="mc", replications=50_000, seed=7,
        )
        assert report.verdict in ("holds", "holds-within-stat-error")
        assert report.stderr is not None and report.stderr > 0

    def test_atom_dependent_h(self):
        space = GroundSpace((1.0, 2.0))
        report = check_mecke(
            space, lambda c, i: (i + 1.0) * math.exp(-0.1 * float(np.asarray(c)[i]))
        )
        assert report.ok
