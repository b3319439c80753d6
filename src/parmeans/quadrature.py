"""Adaptive Gauss-Kronrod (G7, K15) quadrature with interval bisection."""

from __future__ import annotations

import heapq
import math
from typing import Callable, NamedTuple

from .errors import DomainError, QuadratureError

# 15-point Kronrod nodes on [-1, 1] (positive half) and weights, with the
# embedded 7-point Gauss weights.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327


class QuadratureResult(NamedTuple):
    value: float
    error_estimate: float
    subdivisions: int


def _gk15(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel; returns (integral, error estimate)."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    fv = [0.0] * 15
    fv[7] = fc
    resk = _WGK_CENTER * fc
    resg = _WG_CENTER * fc
    for j in range(7):
        x = h * _XGK[j]
        f1 = f(c - x)
        f2 = f(c + x)
        fv[j] = f1
        fv[14 - j] = f2
        resk += _WGK[j] * (f1 + f2)
        if j % 2 == 1:
            resg += _WG[j // 2] * (f1 + f2)
    mean = 0.5 * resk
    resasc = _WGK_CENTER * abs(fc - mean)
    for j in range(7):
        resasc += _WGK[j] * (abs(fv[j] - mean) + abs(fv[14 - j] - mean))
    resasc *= abs(h)
    err = abs(resk - resg) * abs(h)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk * h, err


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-12,
    abs_tol: float = 1e-15,
    max_subdivisions: int = 10_000,
) -> QuadratureResult:
    """Integrate f over [a, b] to the requested relative tolerance.

    Bisects the interval with the largest error estimate until the summed
    estimate meets max(rel_tol * |integral|, abs_tol); raises
    QuadratureError with the achieved tolerance when the subdivision
    budget runs out, and when the integral or the estimate is not finite.
    A rel_tol below 50 eps acts as 50 eps; a non-finite bound, a NaN or
    negative tolerance and max_subdivisions < 1 raise DomainError.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise DomainError(f"integration bounds must be finite, got [{a!r}, {b!r}]")
    for name, tol in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
        if not tol >= 0.0:
            raise DomainError(f"{name} must be a non-negative real, got {tol!r}")
    if not max_subdivisions >= 1:
        raise DomainError(f"max_subdivisions must be at least 1, got {max_subdivisions!r}")
    if a == b:
        return QuadratureResult(0.0, 0.0, 0)
    value, err = _gk15(f, a, b)
    heap = [(-err, a, b, value, err)]
    total_v, total_e = value, err
    n = 1
    floor = 50.0 * (2.0 ** -52)
    while total_e > max(max(rel_tol, floor) * abs(total_v), abs_tol):
        if n >= max_subdivisions:
            achieved = total_e / abs(total_v) if total_v != 0.0 else math.inf
            raise QuadratureError("quadrature budget exhausted", achieved, n)
        _, aa, bb, vv, ee = heapq.heappop(heap)
        mid = 0.5 * (aa + bb)
        v1, e1 = _gk15(f, aa, mid)
        v2, e2 = _gk15(f, mid, bb)
        total_v += v1 + v2 - vv
        total_e += e1 + e2 - ee
        heapq.heappush(heap, (-e1, aa, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, bb, v2, e2))
        n += 1
    if not (math.isfinite(total_v) and math.isfinite(total_e)):
        raise QuadratureError(f"integral {total_v!r} or its error estimate {total_e!r} not finite",
                              math.nan, n)
    return QuadratureResult(total_v, total_e, n)
