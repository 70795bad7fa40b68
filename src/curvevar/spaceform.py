"""Ambient space forms: Euclidean 3-space, the round 3-sphere in R^4, and
hyperbolic 3-space as the hyperboloid in Minkowski R^{3,1}.

All non-Euclidean geometry is handled through the isometric quadric
embeddings, so geodesics and normals are closed-form.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, NotTangentError

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

    @staticmethod
    def euclidean() -> "SpaceForm":
        return SpaceForm(0.0, Model.EUCLIDEAN)

    @staticmethod
    def sphere(radius: float = 1.0) -> "SpaceForm":
        if radius <= 0:
            raise ConfigError("sphere model radius must be positive")
        return SpaceForm(1.0 / radius**2, Model.SPHERE, radius)

    @staticmethod
    def hyperbolic(radius: float = 1.0) -> "SpaceForm":
        if radius <= 0:
            raise ConfigError("hyperboloid model radius must be positive")
        return SpaceForm(-1.0 / radius**2, Model.HYPERBOLOID, radius)

    @staticmethod
    def from_k0(k0: float) -> "SpaceForm":
        if k0 == 0:
            return SpaceForm.euclidean()
        if k0 > 0:
            return SpaceForm.sphere(1.0 / np.sqrt(k0))
        return SpaceForm.hyperbolic(1.0 / np.sqrt(-k0))

    @staticmethod
    def from_config(cfg: dict) -> "SpaceForm":
        """Parse ``{"k0": float}`` with optional ``{"model_radius": float}``."""
        k0 = float(cfg.get("k0", 0.0))
        if "model_radius" in cfg:
            rho = float(cfg["model_radius"])
            expected = 0.0 if k0 == 0 else np.sign(k0) / rho**2
            if k0 == 0:
                raise ConfigError("model_radius given but k0 = 0 is Euclidean")
            if abs(expected - k0) > 1e-10 * max(abs(k0), 1.0):
                raise ConfigError(
                    f"inconsistent space form: k0={k0} but radius {rho} implies {expected}"
                )
        return SpaceForm.from_k0(k0)

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

    def flat_inner(self, v, w):
        """Bilinear form of the flat ambient (Minkowski for hyperbolic),
        contracted over the trailing axis of v and w."""
        v = np.asarray(v, dtype=float)
        w = np.asarray(w, dtype=float)
        return (v * w) @ self.metric_signs

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
        bad = np.abs(self.flat_inner(p, v)) > TANGENCY_RTOL * np.maximum(scale, 1e-300)
        if np.any(bad):
            raise NotTangentError("not tangent")

    def check_unit_tangent(self, p, n) -> None:
        """Refuse a direction n at p that is not a unit vector tangent to
        the model."""
        if np.any(np.abs(self.flat_inner(n, n) - 1.0) > 1e-8):
            raise NotTangentError("direction is not a unit vector")
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

    def to_config(self) -> dict:
        cfg = {"k0": self.k0}
        if self.model is not Model.EUCLIDEAN:
            cfg["model_radius"] = self.radius
        return cfg
