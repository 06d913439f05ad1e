"""Property tests: the batched generator against its per-atom definition."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import levyflow as lf
from levyflow._linalg import fro_norm
from levyflow.cli import _gauss_bump


def _generator_per_atom(triplet, f, x):
    """A_X f(x) with one f.value call per atom, and the sum of the absolute
    values of its terms (the scale its rounding error is measured against)."""
    d = triplet.d
    g = f.grad(x)
    ell = x @ triplet.gamma
    for r, a in triplet.jumps.atom_rates():
        xa = x @ a
        ell = ell + r * xa * (float(fro_norm(xa) <= 1.0) - float(fro_norm(a) <= 1.0))
    total = float(np.einsum("ij,ij->", ell, g))
    scale = float(np.einsum("ij,ij->", np.abs(ell), np.abs(g)))
    if triplet.has_gaussian_part():
        sigma4 = triplet.sigma.reshape(d, d, d, d)
        q = np.einsum("im,jmln,kn->ijkl", x, sigma4, x)
        diffusion = 0.5 * float(np.einsum("ijkl,ijkl->", q, f.hess(x)))
        total += diffusion
        scale += abs(diffusion)
    fx = f.value(x)
    for r, a in triplet.jumps.atom_rates():
        xa = x @ a
        term = f.value(x + xa) - fx
        if fro_norm(xa) <= 1.0:
            term -= float(np.einsum("ij,ij->", xa, g))
        total += r * term
        scale += r * (abs(f.value(x + xa)) + abs(fx) + abs(float(np.sum(xa * g))))
    return total, scale


@st.composite
def _cases(draw):
    """A random triplet with 1-3 atoms whose sizes put ||x a_i||_F on both
    sides of 1, a random state x, and a Gaussian bump test function."""
    d = draw(st.integers(1, 3))
    mat = lambda lo, hi: arrays(np.float64, (d, d), elements=st.floats(lo, hi))
    x = draw(mat(-1.5, 1.5))
    atoms = []
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(mat(-1.0, 1.0).filter(lambda a: fro_norm(a) > 0.1))
        size = draw(st.floats(0.05, 2.5))
        atoms.append((draw(st.floats(0.1, 1.0)), size * shape / fro_norm(shape)))
    total = sum(p for p, _ in atoms)
    jumps = lf.JumpSpec(rate=draw(st.floats(0.1, 4.0)),
                        atoms=tuple((p / total, a) for p, a in atoms))
    sigma = draw(st.sampled_from([0.0, 0.3])) * np.eye(d * d)
    triplet = lf.MatrixLevyTriplet(d=d, sigma=sigma, gamma=draw(mat(-1.0, 1.0)),
                                   jumps=jumps)
    bump = _gauss_bump(draw(mat(-1.0, 1.0)), draw(st.floats(0.8, 2.0)))
    return triplet, bump, x


@settings(max_examples=50, deadline=None)
@given(_cases())
def test_generator_apply_matches_per_atom_sum(case):
    triplet, bump, x = case
    want, scale = _generator_per_atom(triplet, bump, x)
    got = lf.generator_apply(triplet, bump, x)
    assert abs(got - want) <= 1e-12 * max(abs(want), scale)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    arrays(np.float64, (d, d), elements=st.floats(-2.0, 2.0)),
    arrays(np.float64, (5, d, d), elements=st.floats(-2.0, 2.0)),
    st.floats(0.1, 3.0))))
def test_gauss_bump_on_a_stack_is_per_matrix(case):
    center, stack, width = case
    bump = _gauss_bump(center, width)
    got = bump.value(stack)
    assert got.shape == (5,)
    np.testing.assert_allclose(got, [bump.value(m) for m in stack], rtol=1e-15, atol=0)
