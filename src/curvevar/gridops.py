"""Grid differentiation helpers.

``ChartDerivatives.jet`` takes all partials of grid values up to a total
order in one pass, for fields without a jet and for closed-chart jets:

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
        # pole-offset samples have spacing L/n in the open interval
        self._dv = lv / domain.nv if domain.periodic_v or domain.pole_offset else lv / (domain.nv - 1)
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

    def _along(self, vals: np.ndarray, axis: int, orders, fk: np.ndarray | None = None) -> list:
        """The derivatives of the given orders (each >= 1) along axis 0 (u)
        or 1 (v); along a spectral direction all from one forward FFT, fk =
        ``transform(vals, axis)``, taken here unless given."""
        if not orders:
            return []
        if not self.spectral(axis):
            spec = "ij,j...->i..." if axis == 0 else "ij,kj...->ki..."
            return [np.einsum(spec, self._fd_matrix("uv"[axis], m), vals) for m in orders]
        fk = self.transform(vals, axis) if fk is None else fk
        period = self._lu if axis == 0 else (self._lv if self.domain.periodic_v else 2.0 * self._lv)
        ders = spectral_derivatives(fk, self.transform_size(axis), orders, period, axis)
        if axis == 0 or self.domain.periodic_v:
            return ders
        # the first half of the pole extension, copied so it keeps the memory layout of vals
        return [der[:, : self.domain.nv].copy(order="K") for der in ders]

    def jet(self, vals: np.ndarray, order: int, spectra: dict | None = None) -> dict:
        """{(a, b): d^a_u d^b_v vals} for a + b <= order, (0, 0) being vals:
        the u-derivatives, then the v-derivatives of each, one forward FFT
        per spectral pass; ``spectra`` = {axis: transform(vals, axis)} saves
        the first two, when already taken."""
        spectra = spectra or {}
        out = {}
        du = [vals, *self._along(vals, 0, range(1, order + 1), spectra.get(0))]
        for a, x in enumerate(du):
            dv = [x, *self._along(x, 1, range(1, order - a + 1), None if a else spectra.get(1))]
            out.update(((a, b), y) for b, y in enumerate(dv))
        return out

    def partial(self, vals: np.ndarray, a: int, b: int) -> np.ndarray:
        """The (a, b) entry of ``jet``, taken alone."""
        x = np.asarray(vals, dtype=float)
        x = self._along(x, 0, (a,))[0] if a else x
        return self._along(x, 1, (b,))[0] if b else x
