"""Reference values that share no code with the riemann_examples package.

Everything here is derived from the curve w^2 = p(z) = z (z - lam) (z + 1/lam)
and the Weierstrass data g = z, eta = s dz / (z w) directly:

* x2 is algebraic: x2 = Re(2 i s (w/z - w0)), with w0 the principal root of
  p at the base point z = 1 (w0 = 0 at lam = 1).
* The translation period has T2 = 0 and
  T3 = 4 s * int_{-1/lam}^0 dx / sqrt(p),  T1 = -4 s * int_{-1/lam}^0 x dx / sqrt(p),
  evaluated here with mpmath at 30 digits on geometrically split intervals.
* The vertical gap between adjacent planar ends is T3 / 2 for every lam.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

#: Stated tolerances of the oracle comparisons (relative to max(1, |reference|)
#: for positions, relative to |reference| for periods and end spacings).
POSITION_TOL = 1e-8
PERIOD_TOL = 1e-8


def paper_scale(lam: float) -> float:
    """Scale s of the paper normalization: sqrt(lam) for lam >= 1, else 1/sqrt(lam)."""
    return math.sqrt(lam) if lam >= 1.0 else 1.0 / math.sqrt(lam)


def curve_p(z, lam: float):
    return z * (z - lam) * (z + 1.0 / lam)


def base_root(lam: float) -> complex:
    """Principal square root of p(1) = (1 - lam)(1 + 1/lam)."""
    return cmath.sqrt(complex((1.0 - lam) * (1.0 + 1.0 / lam), 0.0))


def x2_closed_form(z, w, lam: float, s: float):
    """x2 = Re(2 i s (w/z - w0)); vectorized over z and w."""
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    return np.real(2j * s * (w / z - base_root(lam)))


def x2_error(x2, z, w, lam: float, s: float) -> float:
    """Largest |x2 - oracle| / max(1, |oracle|) over the given points."""
    ref = x2_closed_form(z, w, lam, s)
    x2 = np.asarray(x2, dtype=float)
    if x2.size == 0:
        return 0.0
    return float(np.max(np.abs(x2 - ref) / np.maximum(1.0, np.abs(ref))))


def mesh_x2_error(vertices, normals, lam: float, s: float) -> float:
    """x2 error of mesh vertices, with z recovered from the unit normal as
    (n1 + i n2) / (1 - n3) and the nearer of the two roots +-sqrt(p) taken
    (the mesh carries both sheets)."""
    v = np.asarray(vertices, dtype=float)
    n = np.asarray(normals, dtype=float)
    z = (n[:, 0] + 1j * n[:, 1]) / (1.0 - n[:, 2])
    w = np.sqrt(curve_p(z, lam).astype(complex))
    scale = np.maximum(1.0, np.abs(v[:, 1]))
    err_plus = np.abs(v[:, 1] - x2_closed_form(z, w, lam, s)) / scale
    err_minus = np.abs(v[:, 1] - x2_closed_form(z, -w, lam, s)) / scale
    return float(np.max(np.minimum(err_plus, err_minus)))


def raw_periods(lam: float) -> tuple:
    """(T1, T3) of the raw family (s = 1), by mpmath quadrature.

    The interval (-1/lam, 0) is split geometrically toward 0 down to a
    quarter of lam, so tanh-sinh sees one scale per piece even when the
    branch points 0 and lam crowd together.
    """
    import mpmath

    with mpmath.workdps(30):
        lv = mpmath.mpf(lam)
        a = -1 / lv
        pts = [a]
        x = a / 2
        while -x > lv / 4:
            pts.append(x)
            x /= 2
        pts.append(mpmath.mpf(0))

        def p_abs(x):
            return abs(x * (x - lv) * (x - a))

        i3 = mpmath.quad(lambda x: 1 / mpmath.sqrt(p_abs(x)), pts)
        i1 = mpmath.quad(lambda x: x / mpmath.sqrt(p_abs(x)), pts)
        return float(-4 * i1), float(4 * i3)


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)
