"""Shared fixtures: small spaces, exact engines, and functional builders."""

import numpy as np
import pytest

from poisson_ou import (
    Functional,
    GroundSpace,
    SemigroupEngine,
    TruncatedStateSpace,
    cli,
    from_rule,
    grids,
)


@pytest.fixture(autouse=True)
def cold_runner():
    """Drop the runner's held context, so that each test's first
    ``cli.run_config`` compiles and builds as a fresh process does."""
    cli._held = None


@pytest.fixture(scope="session")
def one_atom_space():
    return GroundSpace((1.0,))


@pytest.fixture(scope="session")
def one_atom_engine(one_atom_space):
    trunc = TruncatedStateSpace.from_tail_mass(one_atom_space)
    return SemigroupEngine(one_atom_space, trunc)


@pytest.fixture(scope="session")
def two_atom_space():
    return GroundSpace((1.0, 0.5))


@pytest.fixture(scope="session")
def two_atom_engine(two_atom_space):
    trunc = TruncatedStateSpace.from_tail_mass(two_atom_space)
    return SemigroupEngine(two_atom_space, trunc)


def engine_for(lam, seed=0, mode="exact", replications=100_000):
    """One-atom exact engine with default truncation for intensity lam."""
    space = GroundSpace((float(lam),))
    trunc = TruncatedStateSpace.from_tail_mass(space)
    return SemigroupEngine(space, trunc, mode=mode,
                           replications=replications, seed=seed)


def random_bounded_functional(rng, n_values=80, low=-1.0, high=1.0, name="F"):
    """One-atom functional n -> vals[min(n, N)], values iid uniform in [low, high].

    Total on all of N (constant beyond the table), so exact engines of any
    padded shape can tabulate it.
    """
    vals = rng.uniform(low, high, size=n_values)
    top = n_values - 1

    def rule(c):
        return float(vals[min(int(c[0]), top)])

    return from_rule(rule, name=name, bounded_by=max(abs(low), abs(high)))


def random_decreasing_functional(rng, n_values=80, name="F"):
    """Non-negative, non-increasing one-atom functional (cumulative of
    non-positive increments, floored at zero, constant beyond the table)."""
    drops = rng.uniform(0.0, 0.3, size=n_values - 1)
    vals = np.maximum(rng.uniform(0.5, 2.0) - np.concatenate([[0.0], np.cumsum(drops)]), 0.0)
    top = n_values - 1

    def rule(c):
        return float(vals[min(int(c[0]), top)])

    return from_rule(rule, name=name, bounded_by=float(vals[0]))


def constant(value: float) -> Functional:
    v = float(value)
    return Functional(rule=lambda c: v, name=f"const({v})", bounded_by=abs(v))


def affine(coeffs, funcs, const=0.0) -> Functional:
    """a_1 F_1 + ... + a_k F_k + const, as a rule-backed functional whose
    batch sums the children's ``values`` in the rule's order."""
    coeffs = [float(a) for a in coeffs]
    funcs = list(funcs)

    def rule(c):
        return const + sum(a * f(c) for a, f in zip(coeffs, funcs))

    def batch(c):
        # adds like the rule's int 0 and keeps the shape of the states
        start = np.zeros(grids.count_shape(c))
        return const + sum((a * f.values(c) for a, f in zip(coeffs, funcs)), start)

    return Functional(rule=rule, name="affine", batch=batch)
