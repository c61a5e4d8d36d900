"""Closed-form expectation of the rectified Gaussian margin and its derivatives.

For S ~ Normal(mu, sigma^2), z = mu / sigma, phi = exp(-z^2 / 2) / sqrt(2 pi)
and p = Pr[S > 0] = Phi(z), the standard normal CDF,

    E[max(0, S)] = sigma * phi + mu * p

with dE/dmu = p and dE/d(sigma^2) = phi / (2 sigma), and second derivatives

    d2E/dmu2 = phi / sigma,  d2E/dmu d(sigma^2) = -mu phi / (2 sigma^3),
    d2E/d(sigma^2)^2 = phi (z^2 - 1) / (4 sigma^3).

Phi needs numpy and the standard library only. It is taken from erfc in the
tail, so p stays exact where 1 - erf cancels to nothing, and comes out
exactly 0 or 1 where exp(-z^2 / 2) underflows. Small arrays map math.erfc over
their entries: about 0.1 us per entry and almost nothing per call. Larger
arrays evaluate the Cephes ndtr rationals (S. L. Moshier, Methods and Programs
for Mathematical Functions, 1989; after W. J. Cody, Rational Chebyshev
approximations for the error function, Math. Comp. 23, 1969) with numpy on
index subsets, reusing exp(-z^2 / 2) from phi: about a hundred numpy calls
per call but little per entry. Neither is fast at both sizes, so the size picks
one; on a 2-core x86-64 host they cost the same at about 1000 entries. The
size is that of the last two axes, one profile's (2, n) margins in the costs:
the two paths round differently, and a stack of profiles, (..., 2, n), keeps
the bits that each profile gets alone.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
_RATIONAL_MIN_SIZE = 1024  # arrays of at least this many entries take the rationals

# Cephes ndtr, at x = z / sqrt(2): erf(x) = x T(x^2) / U(x^2) for |x| < 1;
# erfc(x) = exp(-x^2) P(x) / Q(x) on [1, 8) and exp(-x^2) R(x) / S(x) from 8
# on. Coefficients from the highest power down; U, Q and S have a leading 1
# that is left out here.
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)


def _ratio(x, num, den):
    """num(x) / den(x) by Horner's rule, den with its leading 1."""
    p = num[0] * x
    p += num[1]
    for c in num[2:]:
        p *= x
        p += c
    q = x + den[0]
    for c in den[1:]:
        q *= x
        q += c
    p /= q
    return p


def _ndtr(z, e):
    """Phi(z) for an array z with e = exp(-z^2 / 2), of z's shape, on the
    path that the entries of z's last two axes pick."""
    if math.prod(z.shape[-2:]) < _RATIONAL_MIN_SIZE:
        w = (z * -_SQRT_HALF).ravel().tolist()
        return 0.5 * np.fromiter(map(math.erfc, w), float, len(w)).reshape(z.shape)
    # Integer indices, not boolean masks: on scattered entries they gather and
    # scatter several times faster.
    shape, z, e = z.shape, z.ravel(), e.ravel()
    x = np.abs(z)
    x *= _SQRT_HALF
    inner, far = x < 1.0, x >= 8.0
    mid = np.flatnonzero(~(inner | far))  # and NaN, which the rationals keep
    far = np.flatnonzero(far & (e != 0.0))  # there x < 27.3: nothing overflows
    q = np.zeros(z.size)  # Phi(-|z|) = erfc(x) / 2, left 0 where e underflows
    q[mid] = _ratio(x[mid], _P, _Q)
    q[far] = _ratio(x[far], _R, _S)
    q *= e
    q *= 0.5
    out = np.where(z > 0, 1.0 - q, q)
    inner = np.flatnonzero(inner)
    xs = z[inner] * _SQRT_HALF
    out[inner] = 0.5 + 0.5 * xs * _ratio(xs * xs, _T, _U)
    return out.reshape(shape)


def hinge_expect(mu, sigma):
    """(E[max(0, S)], its derivative in mu, its derivative in sigma^2) for
    S ~ Normal(mu, sigma^2). Vectorized, with Phi's path picked by the last
    two axes of the broadcast shape; scalar inputs give three floats."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if not (sigma > 0).all():
        raise ValueError("sigma must be strictly positive")
    z = mu / sigma
    e = np.exp(-0.5 * z * z)
    phi = e / _SQRT2PI
    p = _ndtr(z, e)
    value, dvar = sigma * phi + mu * p, phi / (2.0 * sigma)
    if value.ndim:
        return value, p, dvar
    return float(value), float(p), float(dvar)


def hinge_hessian(mu, sigma):
    """(d2E/dmu2, d2E/dmu d(sigma^2), d2E/d(sigma^2)^2) of E[max(0, S)] for
    S ~ Normal(mu, sigma^2), as arrays of the broadcast shape."""
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if not (sigma > 0).all():
        raise ValueError("sigma must be strictly positive")
    z = mu / sigma
    phi_s = np.exp(-0.5 * z * z) / (_SQRT2PI * sigma)  # phi / sigma
    return phi_s, -0.5 * z * phi_s / sigma, 0.25 * (z * z - 1.0) * phi_s / (sigma * sigma)
