"""Ground spaces, truncation, sampling, exact laws, and the Mecke identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from poisson_ou import (
    BudgetExceededError,
    GroundSpace,
    NonFiniteValueError,
    SemigroupEngine,
    TruncatedStateSpace,
    check_mecke,
    sample_configurations,
)
from poisson_ou.ground import _min_cap, sample_moments


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

    @pytest.mark.parametrize("weights,tail", [
        ((1e-13,), 1e-12), ((1e-300, 2.0), 1e-12), ((1.0,), 0.999),
    ])
    def test_a_tail_met_at_cap_0_gets_cap_1(self, weights, tail):
        # P[X > 0] <= tail / m already, so the least cap is 0, which a grid
        # cannot have: min_caps keeps the 0 and caps raise it to 1
        assert _min_cap(weights[0], tail / len(weights)) == 0
        trunc = TruncatedStateSpace.from_tail_mass(GroundSpace(weights), tail_mass=tail)
        assert (trunc.min_caps[0], trunc.caps[0]) == (0, 1)
        assert trunc.caps[1:] == tuple(_min_cap(w, tail / len(weights)) for w in weights[1:])

    @pytest.mark.parametrize("derived", ["caps", "min_caps"])
    def test_caps_cannot_be_passed_in(self, derived):
        with pytest.raises(TypeError):
            TruncatedStateSpace(GroundSpace((1.0,)), **{derived: (3,)})

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


def moment_samples():
    """About 1000 seeded samples, n from 2 to 5000: scaled and offset
    normals, integer values, all-equal samples and samples holding inf or
    nan."""
    rng = np.random.default_rng(24)
    for k in range(1000):
        n = int(np.exp(rng.uniform(math.log(2), math.log(5001))))
        kind = k % 4
        if kind == 0:
            offset = rng.uniform(-1e3, 1e3)
            yield offset + 10.0 ** rng.uniform(-5, 5) * rng.standard_normal(n)
        elif kind == 1:
            yield rng.integers(-50, 51, size=n).astype(float)
        elif kind == 2:
            yield np.full(n, rng.choice([0.0, -0.0, 1.0, 0.1, -3e5]))
        else:
            x = rng.standard_normal(n)
            x[rng.integers(0, n, size=rng.integers(1, 3))] = rng.choice(
                [math.inf, -math.inf, math.nan])
            yield x


def numpy_moments(x):
    return x.mean(), x.var(ddof=1), x.std(ddof=1) / np.sqrt(len(x)), (x - x.mean()) ** 2


class TestSampleMoments:
    """``sample_moments`` is numpy's mean, var(ddof=1), std(ddof=1) / sqrt(n)
    and squared deviations, bit for bit."""

    def test_bit_for_bit_numpy(self):
        for x in moment_samples():
            with np.errstate(invalid="ignore", over="ignore"):
                got, want = sample_moments(x), numpy_moments(x)
            assert type(got.mean) is type(got.variance) is type(got.stderr) is float
            for g, w in zip(got, want):
                g, w = np.asarray(g, dtype=float), np.asarray(w, dtype=float)
                assert g.shape == w.shape and g.tobytes() == w.tobytes(), (len(x), x[:4])

    def test_all_equal_sample_has_zero_variance(self):
        moments = sample_moments(np.full(7, 0.3))
        assert moments.variance == moments.stderr == 0.0
        assert not moments.squared_deviations.any()

    @pytest.mark.parametrize("x", [[1.0, math.inf], [math.inf, -math.inf], [1.0, math.nan],
                                   [1e308, 1e308, 1e308], [1e200, -1e200]])
    def test_same_floating_point_errors(self, x):
        """Under np.errstate(all="raise") the helper stops at the same
        operation as numpy, with the same message."""
        def error(moments):
            with np.errstate(all="raise"):
                try:
                    moments(np.array(x))
                except FloatingPointError as err:
                    return str(err)
            return None

        assert error(sample_moments) == error(numpy_moments)


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
        assert report.verdict == "holds"
        assert report.lhs == pytest.approx(space.total_mass, abs=1e-9)

    def test_count_h_exact(self):
        # h(c, i) = c_i: E sum c_i^2 = sum (lam_i + lam_i^2),
        # shifted side sum lam_i E[c_i + 1] = sum lam_i(lam_i + 1)
        space = GroundSpace((1.0, 3.0))
        report = check_mecke(space, lambda c, i: float(np.asarray(c)[i]))
        assert report.verdict == "holds"
        expected = sum(lam + lam**2 for lam in space.weights)
        assert report.lhs == pytest.approx(expected, abs=1e-8)

    def test_exponential_h_exact(self):
        space = GroundSpace((1.0,))
        report = check_mecke(space, lambda c, i: math.exp(-0.3 * float(np.asarray(c)[0])))
        assert report.verdict == "holds"
        # E[c e^{-0.3 c}] for c ~ Poisson(1), via the derivative of the pgf
        s = math.exp(-0.3)
        expected = s * math.exp(s - 1.0)
        assert report.lhs == pytest.approx(expected, abs=1e-9)

    def test_mc_mode_agrees(self):
        space = GroundSpace((1.0, 0.5))
        report = check_mecke(
            SemigroupEngine(space, mode="mc", replications=50_000, seed=7),
            lambda c, i: math.exp(-0.2 * float(np.asarray(c)[i])),
        )
        assert report.verdict in ("holds", "holds-within-stat-error")
        assert report.stderr is not None and report.stderr > 0

    def test_atom_dependent_h(self):
        space = GroundSpace((1.0, 2.0))
        report = check_mecke(
            space, lambda c, i: (i + 1.0) * math.exp(-0.1 * float(np.asarray(c)[i]))
        )
        assert report.verdict == "holds"

    def test_non_finite_callable_h_names_the_atom(self):
        space = GroundSpace((1.0, 2.0))
        h = lambda c, i: math.nan if i == 1 and np.asarray(c)[1] == 2 else 1.0
        with pytest.raises(NonFiniteValueError, match="non-finite value at atom 1"):
            check_mecke(space, h)
