import math

import numpy as np
from hypothesis import settings
from scipy import integrate

from dgeo.gauge import _rtsafe

# every @given test draws the same examples on every run
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def tan_quad(f, center=0.0, epsabs=1e-11):
    """Integral of f over the real line via the tangent substitution."""
    val, _ = integrate.quad(lambda u: f(center + math.tan(u)) / math.cos(u) ** 2,
                            -math.pi / 2, math.pi / 2, epsabs=epsabs, epsrel=1e-11,
                            limit=300)
    return val


def ks_statistic_vs_density(samples, pdf, center=0.0):
    """Kolmogorov-Smirnov distance of samples against a density known only
    pointwise.

    The CDF is accumulated by Gauss-Legendre panels between consecutive
    sorted sample points (the density is smooth, so short panels are
    essentially exact), with the left tail handled by the tangent
    substitution.
    """
    xs = np.sort(np.asarray(samples, dtype=float))
    n = xs.size
    nodes, weights = np.polynomial.legendre.leggauss(12)

    total = tan_quad(pdf, center=center)  # should be 1; guards the oracle itself
    left = integrate.quad(lambda u: pdf(center + math.tan(u)) / math.cos(u) ** 2,
                          -math.pi / 2, math.atan(xs[0] - center),
                          epsabs=1e-12, epsrel=1e-12, limit=300)[0]

    a = xs[:-1]
    b = xs[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * nodes[None, :]
    panel = (half[:, None] * weights[None, :] * pdf(pts)).sum(axis=1)
    cdf = left + np.concatenate([[0.0], np.cumsum(panel)])
    cdf = np.clip(cdf / total, 0.0, 1.0)

    ecdf_hi = np.arange(1, n + 1) / n
    ecdf_lo = np.arange(0, n) / n
    return float(np.max(np.maximum(np.abs(ecdf_hi - cdf), np.abs(cdf - ecdf_lo))))


def ks_critical(n, alpha=0.01):
    """Asymptotic two-sided critical value of the KS statistic."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) / math.sqrt(n)


def rtsafe_on_two_copies(evaluate, x, a, b, calls):
    """gauge._rtsafe on the one element of x duplicated, so that the array loop
    runs; each copy is evaluated alone, as the one-element path evaluates it
    (numpy's matmul may round a 1-row product differently from a 2-row one).
    Appends the number of evaluate rounds to calls and returns the root of
    the first copy after checking that both copies agree bit for bit."""
    def both(xs, live):
        calls[-1] += 1
        parts = [evaluate(xs[i:i + 1], live[i:i + 1] * 0) for i in range(xs.size)]
        return tuple(np.concatenate(v) for v in zip(*parts))

    calls.append(0)
    out = _rtsafe(both, *(np.repeat(v, 2) for v in (x, a, b)))
    assert out[0].tobytes() == out[1].tobytes()
    return out[:1]
