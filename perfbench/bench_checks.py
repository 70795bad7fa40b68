"""Correctness checks: every number an op computes is compared with a
known answer, and any comparison outside its tolerance fails the op.

Tolerances are never looser than the matching acceptance criterion in
``curvevar.acceptance``; where no criterion matches, the tolerance is
stated next to the check in ``bench_workloads``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class Check:
    name: str
    ok: bool
    rel_error: float | None  # None for checks that are not error measurements
    detail: str
    value: float | None = None


@dataclass
class CheckLog:
    """Checks recorded for one op."""

    checks: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)  # reported numbers that are not checked

    def _add(self, name, ok, rel_error, detail, value=None):
        self.checks.append(Check(name, bool(ok), rel_error, detail, value))

    def rel(self, name: str, value, expected: float, tol: float) -> None:
        """|value - expected| / |expected| <= tol (expected nonzero)."""
        value = float(value)
        err = abs(value - expected) / abs(expected)
        self._add(name, err <= tol, err, f"{value!r} vs {expected!r} (rel {err:.3e}, tol {tol:g})")

    def absolute(self, name: str, value, expected: float, tol: float, scale: float = 1.0) -> None:
        """|value - expected| <= tol; the recorded error is relative to ``scale``."""
        value = float(value)
        err = abs(value - expected)
        self._add(name, err <= tol, err / scale, f"{value!r} vs {expected!r} (abs {err:.3e}, tol {tol:g})")

    def pointwise(self, name: str, values, expected, tol: float) -> None:
        """max |values - expected| / max(|expected|, 1) <= tol over a grid."""
        import numpy as np

        values = np.asarray(values, dtype=float)
        expected = np.asarray(expected, dtype=float)
        err = float(np.max(np.abs(values - expected) / np.maximum(np.abs(expected), 1.0)))
        ok = err <= tol and bool(np.all(np.isfinite(values)))
        self._add(name, ok, err, f"max rel deviation {err:.3e} (tol {tol:g})")

    def report_error(self, name: str, rel_error, tol: float) -> None:
        """A relative error computed by the program itself must be <= tol."""
        rel_error = float(rel_error)
        self._add(name, rel_error <= tol, rel_error, f"rel_error {rel_error:.3e} (tol {tol:g})")

    def at_least(self, name: str, value, bound: float) -> None:
        value = float(value)
        self._add(name, value >= bound, None, f"{value!r} >= {bound!r}", value)

    def equal(self, name: str, value, expected) -> None:
        self._add(name, value == expected, None, f"{value!r} == {expected!r}")

    def observe(self, name: str, value) -> None:
        self.observed[name] = float(value)

    def fail(self, name: str, detail: str) -> None:
        self._add(name, False, None, detail)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks) and bool(self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.ok]

    def min_value(self, suffix: str):
        """Smallest value of the lower-bound checks whose name ends in ``suffix``."""
        vals = [c.value for c in self.checks if c.value is not None and c.name.endswith(suffix)]
        return min(vals) if vals else None

    def max_rel_error(self) -> float:
        errs = [c.rel_error for c in self.checks if c.rel_error is not None]
        if not errs:
            return 0.0
        if any(math.isnan(e) for e in errs):
            return math.inf
        return max(errs)
