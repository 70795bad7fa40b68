"""Grid differentiation helpers.

Structured-grid partial derivatives used by fields, and by the numeric
jets of closed charts:

- FFT differentiation along periodic directions.
- FFT differentiation along a pole-offset latitude direction, using the
  double-covering extension f(u, -v) = f(u + period_u/2, v) valid for any
  smooth function on a sphere-type chart.
- Banded finite differences (FD_WIDTH = 9 points, one-sided near the
  edges) elsewhere; a direction needs at least FD_WIDTH grid nodes.
- Fornberg stencil weights for the local jet stencils.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# points of the banded finite-difference stencils
FD_WIDTH = 9


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


def spectral_derivatives(fk: np.ndarray, n: int, orders, period: float, axis: int) -> list:
    """Derivatives of the given orders (each >= 1) along ``axis`` of a
    periodic function sampled at n points, from its forward transform
    fk = rfft(values, axis=axis); one transform serves all the orders."""
    k = 2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n) / period
    shape = [1] * fk.ndim
    shape[axis] = len(k)
    out = []
    for order in orders:
        mult = (1j * k) ** order
        if order % 2 == 1 and n % 2 == 0:
            mult = mult.copy()
            mult[-1] = 0.0
        out.append(np.fft.irfft(fk * mult.reshape(shape), n=n, axis=axis))
    return out


def fd_derivative_matrix(n: int, spacing: float, order: int) -> np.ndarray:
    """Dense differentiation matrix for a uniform non-periodic grid of
    n >= FD_WIDTH nodes."""
    d = np.zeros((n, n))
    half = FD_WIDTH // 2
    for i in range(n):
        lo = min(max(i - half, 0), n - FD_WIDTH)
        idx = np.arange(lo, lo + FD_WIDTH)
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
            n, step = (self.domain.nu, self._du) if direction == "u" else (self.domain.nv, self._dv)
            if n < FD_WIDTH:
                raise ConfigError(f"finite differences along {direction} need at least {FD_WIDTH} grid nodes (got n{direction} = {n})")
            self._mats[key] = fd_derivative_matrix(n, step, order)
        return self._mats[key]

    def spectral(self, axis: int) -> bool:
        """True when derivatives along axis 0 (u) or 1 (v) are taken by FFT:
        along a periodic direction, and along a pole-offset v of a chart
        with periodic u."""
        d = self.domain
        return d.periodic_u if axis == 0 else d.periodic_v or (d.pole_offset and d.periodic_u)

    def transform_size(self, axis: int) -> int:
        """Length of the values ``transform`` takes along ``axis``: the grid
        count, doubled along a pole-offset v by the pole extension."""
        d = self.domain
        return d.nu if axis == 0 else (d.nv if d.periodic_v else 2 * d.nv)

    def transform(self, vals: np.ndarray, axis: int) -> np.ndarray:
        """Forward FFT of grid values along a spectral direction; along a
        pole-offset v, of the values extended to the full latitude circle."""
        if axis == 1 and not self.domain.periodic_v:
            vals = _pole_extend(vals, axis_u=0, axis_v=1)
        return np.fft.rfft(vals, axis=axis)

    def derivatives(self, vals: np.ndarray, axis: int, orders) -> list:
        """The derivatives of the given orders along axis 0 (u) or 1 (v),
        in the order given; order 0 is ``vals`` itself. Along a spectral
        direction one forward FFT serves all the orders."""
        todo = [m for m in orders if m]
        if not todo:
            return [vals] * len(orders)
        if self.spectral(axis):
            return self.derivatives_from(self.transform(vals, axis), vals, axis, orders)
        if axis == 0:
            ders = [np.einsum("ij,j...->i...", self._fd_matrix("u", m), vals) for m in todo]
        else:
            ders = [np.einsum("ij,kj...->ki...", self._fd_matrix("v", m), vals) for m in todo]
        out = {0: vals, **dict(zip(todo, ders))}
        return [out[m] for m in orders]

    def derivatives_from(self, fk: np.ndarray, vals: np.ndarray, axis: int, orders) -> list:
        """``derivatives(vals, axis, orders)`` along a spectral direction,
        from fk = ``transform(vals, axis)``."""
        todo = [m for m in orders if m]
        n = self.transform_size(axis)
        if axis == 0:
            ders = spectral_derivatives(fk, n, todo, self._lu, 0)
        elif self.domain.periodic_v:
            ders = spectral_derivatives(fk, n, todo, self._lv, 1)
        else:  # over the pole extension, of twice the length of v_range
            ders = spectral_derivatives(fk, n, todo, 2.0 * self._lv, 1)
            # the first half, copied so it keeps the memory layout of vals
            ders = [der[:, : self.domain.nv].copy(order="K") for der in ders]
        out = {0: vals, **dict(zip(todo, ders))}
        return [out[m] for m in orders]

    def partial(self, vals: np.ndarray, a: int, b: int) -> np.ndarray:
        """a-th u-derivative and b-th v-derivative of grid values."""
        du = self.derivatives(np.asarray(vals, dtype=float), 0, (a,))[0]
        return self.derivatives(du, 1, (b,))[0]
