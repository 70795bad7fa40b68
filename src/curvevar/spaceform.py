"""Ambient space forms: Euclidean 3-space, the round 3-sphere in R^4, and
hyperbolic 3-space as the hyperboloid in Minkowski R^{3,1}.

All non-Euclidean geometry is handled through the isometric quadric
embeddings, so geodesics and normals are closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ConfigError, NotTangentError, _first_node, _require_radius

TANGENCY_RTOL = 1e-8


class Model(Enum):
    EUCLIDEAN = "euclidean"
    SPHERE = "sphere_embedding"
    HYPERBOLOID = "hyperboloid_embedding"


@dataclass(frozen=True)
class SpaceForm:
    """Simply connected 3-manifold of constant sectional curvature k0."""

    k0: float
    model: Model
    radius: float = 0.0

    def __post_init__(self):
        """Accept only the triples ``euclidean()``, ``sphere(r)`` and
        ``hyperbolic(r)`` build: k0 = 0 and radius 0 in E^3, and k0 = +-1/r^2
        exactly on a model quadric of radius r."""
        if self.model is Model.EUCLIDEAN:
            ok = self.k0 == 0.0 and self.radius == 0.0
        elif self.model in (Model.SPHERE, Model.HYPERBOLOID):
            _require_radius(self.radius, f"{self.model.name.lower()} model radius", "radius")
            ok = self.k0 == (1.0 if self.model is Model.SPHERE else -1.0) / self.radius**2
        else:
            ok = False
        if not ok:
            raise ConfigError(
                f"inconsistent SpaceForm(k0={self.k0!r}, model={self.model!s}, radius={self.radius!r}): build it with "
                "SpaceForm.euclidean() (k0 = 0, radius = 0), SpaceForm.sphere(r) (k0 = 1/r^2) or SpaceForm.hyperbolic(r) (k0 = -1/r^2)"
            )

    @staticmethod
    def euclidean() -> "SpaceForm":
        return SpaceForm(0.0, Model.EUCLIDEAN)

    @staticmethod
    def sphere(radius: float = 1.0) -> "SpaceForm":
        _require_radius(radius, "sphere model radius", "radius")
        return SpaceForm(1.0 / radius**2, Model.SPHERE, radius)

    @staticmethod
    def hyperbolic(radius: float = 1.0) -> "SpaceForm":
        _require_radius(radius, "hyperboloid model radius", "radius")
        return SpaceForm(-1.0 / radius**2, Model.HYPERBOLOID, radius)

    @property
    def ambient_dim(self) -> int:
        return 3 if self.model is Model.EUCLIDEAN else 4

    @property
    def metric_signs(self) -> np.ndarray:
        """Diagonal of the flat ambient quadratic form."""
        if self.model is Model.EUCLIDEAN:
            return np.ones(3)
        if self.model is Model.SPHERE:
            return np.ones(4)
        return np.array([1.0, 1.0, 1.0, -1.0])

    # -- quadric bookkeeping ------------------------------------------------

    @cached_property
    def _inner_map(self):
        """``flat_inner`` as the table of a bilinear map
        (``surface._Bilinear``): the sum of sign_k v_k w_k, left to right."""
        from .surface import _inner_form  # surface imports this module

        return _inner_form(self.metric_signs)

    @cached_property
    def _normal_map(self):
        """The unnormalised normal of a surface in a 4-d model, as the table
        of a bilinear map of the quadric direction and the 2x2 minors of
        (r_u, r_v) (``surface._normal_from_minors``); built once per space
        form."""
        from .surface import _normal_from_minors

        return _normal_from_minors(self.metric_signs)

    def flat_inner(self, v, w):
        """Bilinear form of the flat ambient (Minkowski for hyperbolic),
        contracted over the trailing axis of v and w. It is written out
        component by component in the operands' dtype, so complex operands
        keep their imaginary part."""
        v, w = np.asarray(v), np.asarray(w)
        dim = self.ambient_dim
        if v.shape[-1] != dim or w.shape[-1] != dim:
            raise ValueError(f"flat_inner takes {dim}-vectors (got trailing axes {v.shape[-1]} and {w.shape[-1]})")
        return self._inner_map(v, w)[()]

    def quadric_residual(self, p) -> np.ndarray:
        """Relative violation of the model constraint <p,p> = ±rho^2."""
        if self.model is Model.EUCLIDEAN:
            return np.zeros(np.shape(p)[:-1])
        target = self.radius**2 if self.model is Model.SPHERE else -self.radius**2
        return np.abs(self.flat_inner(p, p) - target) / self.radius**2

    def check_tangent(self, p, v) -> None:
        if self.model is Model.EUCLIDEAN:
            return
        p = np.asarray(p, dtype=float)
        v = np.asarray(v, dtype=float)
        scale = np.sqrt(np.abs(self.flat_inner(p, p)) * np.maximum(np.abs(self.flat_inner(v, v)), 1e-300))
        off, bound = np.abs(self.flat_inner(p, v)), TANGENCY_RTOL * np.maximum(scale, 1e-300)
        if np.any(off > bound):
            node = _first_node(off > bound)
            raise NotTangentError(f"not tangent at node {node}: |<p, v>| = {off[node]:.3e}, bound {bound[node]:.3e}")

    def check_unit_tangent(self, p, n) -> None:
        """Refuse a direction n at p that is not a unit vector tangent to
        the model, naming the first such node."""
        err = np.abs(self.flat_inner(n, n) - 1.0)
        if np.any(err > 1e-8):
            node = _first_node(err > 1e-8)
            raise NotTangentError(f"direction is not a unit vector at node {node}: |<n, n> - 1| = {err[node]:.3e}, bound 1e-08")
        self.check_tangent(p, n)

    # -- operations ---------------------------------------------------------

    def geodesic_step(self, p, n, s):
        """Point at geodesic distance s from p along the unit tangent n.

        Vectorized over leading axes of p/n; s may be scalar or array.
        """
        p = np.asarray(p, dtype=float)
        n = np.asarray(n, dtype=float)
        s = np.asarray(s, dtype=float)
        self.check_unit_tangent(p, n)
        if self.model is Model.EUCLIDEAN:
            return p + s[..., None] * n if s.ndim else p + s * n
        rho = self.radius
        t = np.asarray(s / rho)[..., None] if np.ndim(s) else s / rho
        if self.model is Model.SPHERE:
            return np.cos(t) * p + rho * np.sin(t) * n
        return np.cosh(t) * p + rho * np.sinh(t) * n
