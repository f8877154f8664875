"""Proximal and smooth building blocks for the composite saddle objective."""

from __future__ import annotations

import numpy as np

from .linalg import DimensionMismatchError, LinearMap

__all__ = [
    "ProxFunction",
    "L1Norm",
    "NonnegIndicator",
    "ShiftedQuadratic",
    "SmoothFunction",
    "ZeroSmooth",
    "LeastSquares",
]


def _check_step(step: float) -> float:
    step = float(step)
    if not step > 0:
        raise ValueError(f"prox step must be positive, got {step}")
    return step


class ProxFunction:
    """A convex function with an exact proximal map.

    Subclasses provide ``value`` (extended-real evaluation) and
    ``prox(step, z)``, the minimizer of value(y) + ||y - z||^2 / (2 step).
    ``strong_convexity`` is the modulus (0 unless the kind is strongly
    convex).
    """

    strong_convexity: float = 0.0

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def prox(self, step: float, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class L1Norm(ProxFunction):
    """weight * ||x||_1; prox is componentwise soft thresholding."""

    def __init__(self, weight: float):
        self.weight = float(weight)
        if not 0 <= self.weight < np.inf:
            raise ValueError(f"l1 weight must be finite and nonnegative, got {self.weight}")

    def value(self, x) -> float:
        return self.weight * float(np.abs(x).sum())

    def prox(self, step, z):
        """Soft thresholding of a 1-D vector z (a 0-d z is not supported)."""
        step = _check_step(step)
        z = np.asarray(z, dtype=np.float64)
        # sign(z) * max(|z| - step weight, 0) into one output buffer; sign(z) stays the first
        # factor, because a product of two NaNs keeps the first one's sign bit
        out = np.abs(z)
        out -= step * self.weight
        np.maximum(out, 0.0, out=out)
        return np.multiply(np.sign(z), out, out=out)


class NonnegIndicator(ProxFunction):
    """Indicator of the nonnegative orthant; prox is the projection."""

    def value(self, x) -> float:
        if np.asarray(x).min() < 0:
            return np.inf
        return 0.0

    def prox(self, step, z):
        _check_step(step)
        return np.maximum(np.asarray(z, dtype=np.float64), 0.0)


class ShiftedQuadratic(ProxFunction):
    """0.5 * ||x + shift||^2, strongly convex with modulus 1."""

    strong_convexity = 1.0

    def __init__(self, shift):
        self.shift = np.asarray(shift, dtype=np.float64)

    def value(self, x) -> float:
        d = np.asarray(x) + self.shift
        return 0.5 * float(d @ d)

    def prox(self, step, z):
        step = _check_step(step)
        z = np.asarray(z, dtype=np.float64)
        out = z - step * self.shift
        out /= 1.0 + step
        return out


class SmoothFunction:
    """A convex function with Lipschitz gradient; ``lipschitz`` is the constant."""

    lipschitz: float = 0.0

    def value(self, x: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class ZeroSmooth(SmoothFunction):
    """Identically zero smooth part (vanished term, Lipschitz constant 0)."""

    lipschitz = 0.0

    def value(self, x) -> float:
        return 0.0

    def grad(self, x):
        return np.zeros_like(np.asarray(x, dtype=np.float64))


class LeastSquares(SmoothFunction):
    """0.5 * ||K x - data||^2 with gradient K^T (K x - data)."""

    def __init__(self, mapping: LinearMap, data):
        self.mapping = mapping
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.shape != (mapping.rows,):
            raise DimensionMismatchError(
                f"data length {self.data.shape} does not match {mapping.rows} rows"
            )
        self.lipschitz = mapping.norm() ** 2

    def value(self, x) -> float:
        r = self.mapping.apply(x) - self.data
        return 0.5 * float(r @ r)

    def grad(self, x):
        return self.grad_from_product(self.mapping.apply(x))

    def grad_from_product(self, kx):
        """The gradient K^T (kx - data) at an x whose product K x is ``kx``."""
        return self.mapping.apply_adjoint(kx - self.data)
