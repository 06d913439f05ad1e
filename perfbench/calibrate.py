"""Derive the discretization allowances used by checks.py.

    python3 perfbench/calibrate.py

The engine's product scheme multiplies by (I + dB) per step.  For
standard_brownian(2) the increments of log||y X|| over steps are i.i.d. with
the law of log|(1 + b1, b2)|, b ~ N(0, dt I), and the direction's angle
increments are i.i.d. too, so the scheme's exact lambda, sigma^2 and mixing
decay follow from two-dimensional quadrature of one step.  gbm1 is the
one-dimensional analogue.  Each allowance is then measured with levyflow at
two step sizes.  Takes about a minute on one core.
"""
from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
from scipy import integrate, stats

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def _gauss2(f, s):
    """E f(b1, b2) for b ~ N(0, s^2 I)."""
    inner = lambda b1: integrate.quad(
        lambda b2: f(b1, b2) * stats.norm.pdf(b2, scale=s),
        -12 * s, 12 * s, limit=200, epsabs=1e-14)[0]
    pts = [-1.0] if 12 * s > 1.0 else None
    return integrate.quad(lambda b1: inner(b1) * stats.norm.pdf(b1, scale=s),
                          -12 * s, 12 * s, points=pts, limit=400, epsabs=1e-14)[0]


def sb2_scheme(dt):
    """(lambda, sigma^2, mixing rate) of the product scheme on SB2."""
    s = math.sqrt(dt)
    m1 = _gauss2(lambda a, b: 0.5 * math.log((1 + a) ** 2 + b * b), s)
    m2 = _gauss2(lambda a, b: (0.5 * math.log((1 + a) ** 2 + b * b)) ** 2, s)
    rho = _gauss2(lambda a, b: ((1 + a) ** 2 - b * b) / ((1 + a) ** 2 + b * b), s)
    return m1 / dt, (m2 - m1 * m1) / dt, -math.log(rho) / dt


def gbm_scheme(dt, mu=0.1, vol=0.2):
    s = vol * math.sqrt(dt)
    mom = [integrate.quad(lambda b: math.log(abs(1 + b)) ** k * stats.norm.pdf(b, scale=s),
                          -12 * s, 12 * s, limit=400, epsabs=1e-15)[0] for k in (1, 2)]
    return mu + mom[0] / dt, (mom[1] - mom[0] ** 2) / dt


def main() -> None:
    import levyflow as lf
    from levyflow.cli import _gauss_bump

    sb2 = lf.builtin_triplet("standard_brownian(2)")
    e1 = lf.FunctionalSpec.vector_norm([1.0, 0.0])
    print("standard_brownian(2), vector norm: exact lambda = 0, sigma^2 = 1, mixing rate 2")
    for dt in (0.1, 0.05):
        lam, s2, rate = sb2_scheme(dt)
        rep = lf.clt_diagnostic(sb2, e1, T=10.0, n_paths=40000, seed=7, dt=dt)
        print(f"  dt={dt}: quadrature lambda {lam:.3e} (C {lam / dt:.4f}), "
              f"sigma^2 {s2:.5f} (C {(s2 - 1) / dt:.4f}), rate {rate:.4f} "
              f"(c {(rate / 2 - 1) / dt:.4f})")
        print(f"          measured  lambda {rep.lambda_hat:.3e} +- {rep.lambda_se:.1e}, "
              f"sigma^2 {rep.sigma2_hat:.5f} +- {rep.sigma2_se:.5f} "
              f"(C {(rep.sigma2_hat - 1) / dt:.3f} +- {rep.sigma2_se / dt:.3f})")
        mix = lf.mixing_rate(sb2, lf.HolderFn(eval=lambda p: p.v[0] ** 2),
                             [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                             [0.5], 20000, seed=8, dt=dt)
        print(f"          measured  sup_diff(0.5) {mix.sup_diffs[0]:.5f}, "
              f"scheme {math.exp(-0.5 * rate):.5f}, e^-1 {math.exp(-1.0):.5f}")

    print("gbm1(0.1, 0.2): exact lambda = 0.08, sigma^2 = 0.04")
    gbm = lf.builtin_triplet("gbm1(0.1, 0.2)")
    for dt in (0.1, 0.05):
        lam, s2 = gbm_scheme(dt)
        rep = lf.clt_diagnostic(gbm, lf.FunctionalSpec.op_norm(), T=50.0,
                                n_paths=40000, seed=9, dt=dt)
        print(f"  dt={dt}: quadrature lambda {lam:.6f} (C {(lam - 0.08) / dt:.5f}), "
              f"sigma^2 {s2:.6f} (C {(s2 - 0.04) / dt:.5f})")
        print(f"          measured  lambda {rep.lambda_hat:.6f} +- {rep.lambda_se:.1e}, "
              f"sigma^2 {rep.sigma2_hat:.6f} +- {rep.sigma2_se:.1e}")

    print("generator_check, Gaussian bump at I on standard_brownian(2): A f(I) = -2")
    bump = _gauss_bump(np.eye(2), 1.0)
    for h in (0.04, 0.02):
        (row,), a = lf.generator_mc_check(sb2, bump, np.eye(2), [h], 1000000, seed=10)
        _, q, se, _ = row
        print(f"  h={h}: quotient {q:.5f} +- {se:.5f}, bias/h {(q - a) / h:.3f} "
              f"+- {se / h:.3f}, sd of (f(X_h) - f(I))/h {se * 1000:.3f}")


if __name__ == "__main__":
    main()
