"""Banded finite-difference matrices along open chart axes: built once per
(axis, direction, order), shared by equal grids, read-only, and equal bit
for bit to a per-row construction from the Fornberg weights."""

import numpy as np
import pytest

from curvevar import PatchDomain, codazzi_residual, default_domain, el_residual, sample_builtin, sample_callable
from curvevar import gridops
from curvevar.densities import willmore
from curvevar.gridops import FD_WIDTH, ChartDerivatives, fd_weights

_BAND = PatchDomain((0.0, 2.0 * np.pi), (0.3, np.pi - 0.3), 64, 32, periodic_u=True)


def _row_matrix(ax, order: int) -> np.ndarray:
    """The matrix row by row: row i holds the weights of the FD_WIDTH nodes
    nearest node i, one-sided near the ends."""
    n = ax.n
    mat = np.zeros((n, n))
    for i in range(n):
        lo = min(max(i - FD_WIDTH // 2, 0), n - FD_WIDTH)
        idx = np.arange(lo, lo + FD_WIDTH)
        mat[i, idx] = fd_weights((idx - i) * ax.spacing, order)
    return mat


def _catenoid_map(U, V):
    return np.stack([np.cosh(V) * np.cos(U), np.cosh(V) * np.sin(U), V], axis=-1)


@pytest.fixture
def fd_weight_calls(monkeypatch):
    """The number of ``gridops.fd_weights`` calls since set-up."""
    calls = []

    def counted(*args):
        calls.append(args)
        return fd_weights(*args)

    monkeypatch.setattr(gridops, "fd_weights", counted)
    return calls


@pytest.mark.parametrize("case", ["el_residual", "codazzi_residual"])
def test_second_sample_on_an_equal_open_grid_builds_no_matrix(case, fd_weight_calls):
    """A second sample on an equal open grid reuses every matrix the first
    one built: its grid jets make no ``fd_weights`` call. (The 36 x 18
    grids are used by no other test, so the first sample builds.)"""
    if case == "el_residual":
        domain = default_domain("catenoid", None, 36, 18)
        make = lambda: sample_callable(_catenoid_map, domain, name="catenoid")  # noqa: E731
        run = lambda s: el_residual(s, willmore()).values  # noqa: E731
    else:
        make = lambda: sample_builtin("graph", domain=default_domain("graph", None, 36, 18))  # noqa: E731
        run = codazzi_residual
    first = run(make())
    assert fd_weight_calls
    second = make()
    del fd_weight_calls[:]
    assert np.array_equal(run(second), first)
    assert fd_weight_calls == []


@pytest.mark.parametrize("name", ["catenoid", "graph", "band"])
def test_grid_jets_equal_row_built_matrices(name, monkeypatch):
    """On the catenoid (v open), the graph (u and v open) and a latitude
    band (v open), every order-4 grid jet of the positions equals bit for
    bit the jet taken with matrices built row by row."""
    s = sample_builtin("sphere", domain=_BAND) if name == "band" else sample_builtin(name)
    ops = ChartDerivatives(s.domain)
    jets = ops.jet(s.positions, 4)
    open_axes = [(i, ax) for i, ax in enumerate(s.domain.axes) if ax.kind == "open"]
    assert open_axes
    for i, ax in open_axes:
        for order in range(1, 5):
            assert np.array_equal(gridops.fd_matrix(ax, "uv"[i], order), _row_matrix(ax, order)), (i, order)
    monkeypatch.setattr(gridops, "fd_matrix", lambda ax, d, order: _row_matrix(ax, order))
    want = ops.jet(s.positions, 4)
    assert want.keys() == jets.keys()
    for ab in want:
        assert np.array_equal(jets[ab], want[ab]), ab


def test_shared_matrices_are_read_only():
    """Equal axes share one matrix, which refuses writes."""
    ax = default_domain("catenoid", None, 32, 16).axes[1]
    mat = gridops.fd_matrix(ax, "v", 2)
    assert gridops.fd_matrix(default_domain("catenoid", None, 32, 16).axes[1], "v", 2) is mat
    assert not mat.flags.writeable
    with pytest.raises(ValueError):
        mat[0, 0] = 1.0
