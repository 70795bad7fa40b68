"""Grid differentiation helpers.

``ChartDerivatives.jet`` takes all partials of grid values up to a total
order in one pass, for fields without a jet and for closed-chart jets:

- FFT differentiation along periodic directions.
- FFT differentiation along a pole-offset latitude direction, using the
  double-covering extension f(u, -v) = f(u + period_u/2, v) valid for any
  smooth function on a sphere-type chart.
- Banded finite differences (FD_WIDTH = 9 points, one-sided near the
  edges) elsewhere; a direction needs at least FD_WIDTH grid nodes.

Which rule a direction takes, with its spacing, FFT length and period,
is read from the domain's ``ChartAxis``. ``fd_weights`` gives Fornberg
stencil weights, here and for the local jet stencils.
"""

from __future__ import annotations

from functools import lru_cache

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


@lru_cache(maxsize=32)
def fd_matrix(axis, d: str, order: int) -> np.ndarray:
    """Differentiation matrix along an open ``ChartAxis`` d ("u" or "v")
    of n >= FD_WIDTH nodes, built once per (axis, d, order) and read-only,
    so equal grids share it. The cache keeps the latest 32, at most
    32 x 8 n^2 bytes (4.2 MB for n <= 128)."""
    n, step = axis.n, axis.spacing
    if n < FD_WIDTH:
        raise ConfigError(f"finite differences along {d} need at least {FD_WIDTH} grid nodes (got n{d} = {n})")
    mat = np.zeros((n, n))
    for i in range(n):
        idx = np.arange(FD_WIDTH) + min(max(i - FD_WIDTH // 2, 0), n - FD_WIDTH)
        mat[i, idx] = fd_weights((idx - i) * step, order)
    mat.setflags(write=False)
    return mat


class ChartDerivatives:
    """Partial-derivative operator bundle for one chart grid.

    Axis 0 of the value arrays is the u direction, axis 1 the v direction;
    trailing axes (vector components) are carried along unchanged. Each
    direction is differentiated by the rule of its ``ChartAxis``.
    """

    def __init__(self, domain):
        self.domain = domain

    def transform(self, vals: np.ndarray, axis: int) -> np.ndarray:
        """Forward FFT of grid values along a spectral direction; along a
        pole-offset v (the domain ensures a periodic u, even nu), of the
        values extended to the full latitude circle by f(u, -v) = f(u + period/2, v)."""
        if self.domain.axes[axis].kind == "pole":
            vals = np.concatenate([vals, np.roll(np.flip(vals, axis=1), vals.shape[0] // 2, axis=0)], axis=1)
        return np.fft.rfft(vals, axis=axis)

    def _along(self, vals: np.ndarray, axis: int, orders, fk: np.ndarray | None = None) -> list:
        """The derivatives of the given orders (each >= 1) along axis 0 (u)
        or 1 (v); along a spectral direction all from one forward FFT, fk =
        ``transform(vals, axis)``, taken here unless given."""
        if not orders:
            return []
        ax = self.domain.axes[axis]
        if ax.kind == "open":
            spec = "ij,j...->i..." if axis == 0 else "ij,kj...->ki..."
            return [np.einsum(spec, fd_matrix(ax, "uv"[axis], m), vals) for m in orders]
        fk = self.transform(vals, axis) if fk is None else fk
        n, period = ax.fft
        k = 2.0 * np.pi * np.fft.rfftfreq(n, d=1.0 / n) / period
        shape = [1] * fk.ndim
        shape[axis] = len(k)
        out = []
        for order in orders:
            mult = (1j * k) ** order
            if order % 2 == 1 and n % 2 == 0:
                mult[-1] = 0.0
            der = np.fft.irfft(fk * mult.reshape(shape), n=n, axis=axis)
            # along a pole v, the first half of the extension, copied so it
            # keeps the memory layout of vals
            out.append(der[:, : ax.n].copy(order="K") if ax.kind == "pole" else der)
        return out

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
