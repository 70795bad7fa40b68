"""Grid differentiation helpers.

Structured-grid partial derivatives used by fields, and by the numeric
jets of closed charts:

- FFT differentiation along periodic directions.
- FFT differentiation along a pole-offset latitude direction, using the
  double-covering extension f(u, -v) = f(u + period_u/2, v) valid for any
  smooth function on a sphere-type chart.
- Banded finite differences (5-point, one-sided near the edges) elsewhere.
- Fornberg stencil weights for the local jet stencils.
"""

from __future__ import annotations

import numpy as np


def fd_weights(offsets: np.ndarray, m: int) -> np.ndarray:
    """Fornberg weights for the m-th derivative at 0 from nodes ``offsets``."""
    x = np.asarray(offsets, dtype=float)
    n = len(x)
    if m >= n:
        raise ValueError("need more than m nodes for the m-th derivative")
    c = np.zeros((n, m + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    c4 = x[0]
    for i in range(1, n):
        mn = min(i, m)
        c2 = 1.0
        c5 = c4
        c4 = x[i]
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            if j == i - 1:
                for k in range(mn, 0, -1):
                    c[i, k] = c1 * (k * c[i - 1, k - 1] - c5 * c[i - 1, k]) / c2
                c[i, 0] = -c1 * c5 * c[i - 1, 0] / c2
            for k in range(mn, 0, -1):
                c[j, k] = (c4 * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = c4 * c[j, 0] / c3
        c1 = c2
    return c[:, m]


def spectral_derivatives(vals: np.ndarray, orders, period: float, axis: int) -> list:
    """Derivatives of the given orders (each >= 1) of a periodic sampled
    function along ``axis`` via FFT, all from one forward transform."""
    n = vals.shape[axis]
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n) / period
    shape = [1] * vals.ndim
    shape[axis] = len(k)
    fk = np.fft.rfft(vals, axis=axis)
    out = []
    for order in orders:
        mult = (1j * k) ** order
        if order % 2 == 1 and n % 2 == 0:
            mult = mult.copy()
            mult[-1] = 0.0
        out.append(np.fft.irfft(fk * mult.reshape(shape), n=n, axis=axis))
    return out


def fd_derivative_matrix(n: int, spacing: float, order: int, width: int = 9) -> np.ndarray:
    """Dense differentiation matrix for a uniform non-periodic grid."""
    if n < width:
        raise ValueError("grid too small for the stencil")
    d = np.zeros((n, n))
    half = width // 2
    for i in range(n):
        lo = min(max(i - half, 0), n - width)
        idx = np.arange(lo, lo + width)
        d[i, idx] = fd_weights((idx - i) * spacing, order)
    return d


def _pole_extend(vals: np.ndarray, axis_u: int, axis_v: int) -> np.ndarray:
    """Extend a pole-offset chart array to the full latitude circle."""
    nu = vals.shape[axis_u]
    if nu % 2 != 0:
        raise ValueError("pole extension needs an even longitude count")
    mirrored = np.flip(vals, axis=axis_v)
    mirrored = np.roll(mirrored, nu // 2, axis=axis_u)
    return np.concatenate([vals, mirrored], axis=axis_v)


class ChartDerivatives:
    """Partial-derivative operator bundle for one chart grid.

    Axis 0 of the value arrays is the u direction, axis 1 the v direction;
    trailing axes (vector components) are carried along unchanged.
    """

    def __init__(self, domain):
        self.domain = domain
        lu = domain.u_range[1] - domain.u_range[0]
        lv = domain.v_range[1] - domain.v_range[0]
        self._lu, self._lv = lu, lv
        self._du = lu / domain.nu if domain.periodic_u else lu / (domain.nu - 1)
        self._dv = lv / domain.nv if domain.periodic_v else lv / (domain.nv - 1)
        if domain.pole_offset:
            # offset samples: spacing L/n in the open interval
            self._dv = lv / domain.nv
        self._mats: dict[tuple[str, int], np.ndarray] = {}

    def _fd_matrix(self, direction: str, order: int) -> np.ndarray:
        key = (direction, order)
        if key not in self._mats:
            if direction == "u":
                self._mats[key] = fd_derivative_matrix(self.domain.nu, self._du, order)
            else:
                self._mats[key] = fd_derivative_matrix(self.domain.nv, self._dv, order)
        return self._mats[key]

    def derivatives(self, vals: np.ndarray, axis: int, orders) -> list:
        """The derivatives of the given orders along axis 0 (u) or 1 (v),
        in the order given; order 0 is ``vals`` itself. Along a spectral
        direction one forward FFT serves all the orders."""
        d = self.domain
        todo = [m for m in orders if m]
        if not todo:
            return [vals] * len(orders)
        if axis == 0 and d.periodic_u:
            ders = spectral_derivatives(vals, todo, self._lu, axis=0)
        elif axis == 1 and d.periodic_v:
            ders = spectral_derivatives(vals, todo, self._lv, axis=1)
        elif axis == 1 and d.pole_offset and d.periodic_u:
            ext = _pole_extend(vals, axis_u=0, axis_v=1)
            ders = [der[:, : d.nv] for der in spectral_derivatives(ext, todo, 2.0 * self._lv, axis=1)]
        elif axis == 0:
            ders = [np.einsum("ij,j...->i...", self._fd_matrix("u", m), vals) for m in todo]
        else:
            ders = [np.einsum("ij,kj...->ki...", self._fd_matrix("v", m), vals) for m in todo]
        out = {0: vals, **dict(zip(todo, ders))}
        return [out[m] for m in orders]

    def partial(self, vals: np.ndarray, a: int, b: int) -> np.ndarray:
        """a-th u-derivative and b-th v-derivative of grid values."""
        du = self.derivatives(np.asarray(vals, dtype=float), 0, (a,))[0]
        return self.derivatives(du, 1, (b,))[0]
