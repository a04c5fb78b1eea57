"""Built-in univalent test maps with exact derivatives.

Two families: exterior-disk maps normalised by psi(z) = z + O(1) at
infinity (class tag "Sigma") and unit-disk maps with phi(0) = 0,
phi'(0) = 1 (class tag "S").  ``full_mapping`` records whether the image
complement on the sphere has zero area, which is exactly the equality
case of the area-type bounds.

Maps are code-registered; ``resolve_map`` accepts the fixed names plus
the dynamic family ``b1:<complex>`` for z + b1/z.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["UnivalentMap", "catalog", "resolve_map", "gronwall_sum", "laurent_coefficients"]


@dataclass(frozen=True)
class UnivalentMap:
    """A univalent map with value / first / second derivative evaluators.

    ``coefficients`` holds the leading expansion coefficients when known
    in closed form: (b0, b1, ...) for Sigma maps, (a2, a3, ...) for S maps.
    """

    name: str
    map_class: str  # "Sigma", "S", or "disk" (unit-disk domain, x0-normalised)
    value: Callable = field(repr=False)
    deriv: Callable = field(repr=False)
    deriv2: Callable = field(repr=False)
    coefficients: tuple | None
    full_mapping: bool


def _laurent_map(name: str, b1: complex, full_mapping: bool) -> UnivalentMap:
    """z + b1/z with its exact derivatives."""
    b1 = complex(b1)
    return UnivalentMap(
        name=name,
        map_class="Sigma",
        value=lambda z: z + b1 / z,
        deriv=lambda z: 1.0 - b1 / z**2,
        deriv2=lambda z: 2.0 * b1 / z**3,
        coefficients=(0.0, b1),
        full_mapping=full_mapping,
    )


def _identity_sigma() -> UnivalentMap:
    return UnivalentMap(
        name="identity",
        map_class="Sigma",
        value=lambda z: z + np.zeros_like(z),
        deriv=lambda z: np.ones_like(z),
        deriv2=lambda z: np.zeros_like(z),
        coefficients=(0.0,),
        full_mapping=False,
    )


def _koebe() -> UnivalentMap:
    return UnivalentMap(
        name="koebe",
        map_class="S",
        value=lambda z: z / (1.0 - z) ** 2,
        deriv=lambda z: (1.0 + z) / (1.0 - z) ** 3,
        deriv2=lambda z: 2.0 * (z + 2.0) / (1.0 - z) ** 4,
        coefficients=(2.0, 3.0, 4.0, 5.0, 6.0),
        full_mapping=True,
    )


def _identity_disk() -> UnivalentMap:
    return UnivalentMap(
        name="identity-disk",
        map_class="S",
        value=lambda z: z + np.zeros_like(z),
        deriv=lambda z: np.ones_like(z),
        deriv2=lambda z: np.zeros_like(z),
        coefficients=(0.0,),
        full_mapping=False,
    )


def catalog() -> list[UnivalentMap]:
    """All registered test maps.

    The rotated maps z + exp(i theta)/z send the exterior disk onto the
    sphere minus a straight segment, so they are full mappings like the
    plain z + 1/z; |b1| < 1 leaves an ellipse of positive area uncovered.
    """
    return [
        _identity_sigma(),
        _laurent_map("joukowski", 1.0, True),
        _laurent_map("joukowski-pi3", cmath.exp(1j * math.pi / 3.0), True),
        _laurent_map("joukowski-pi2", cmath.exp(1j * math.pi / 2.0), True),
        _laurent_map("b1:0.3", 0.3, False),
        _laurent_map("b1:0.7", 0.7, False),
        _koebe(),
        _identity_disk(),
    ]


def resolve_map(name: str) -> UnivalentMap:
    """Look up a catalog map by name; supports dynamic ``b1:<complex>``."""
    for m in catalog():
        if m.name == name:
            return m
    if name.startswith("b1:"):
        literal = name[3:].replace("i", "j")
        try:
            b1 = complex(literal)
        except ValueError as exc:
            raise KeyError(f"cannot parse coefficient in map name {name!r}") from exc
        if not abs(b1) <= 1.0 + 1e-12:  # also rejects nan
            raise KeyError(f"{name!r} is not univalent on the exterior disk (|b1| > 1 or not finite)")
        return _laurent_map(name, b1, abs(abs(b1) - 1.0) < 1e-14)
    raise KeyError(f"unknown map {name!r}")


def laurent_coefficients(m: UnivalentMap, n_max: int, radius: float = 2.0, nodes: int = 512):
    """Coefficients b_0..b_n of psi(z) - z by trapezoidal contour integration.

    Spectrally accurate for maps analytic on |z| >= 1 + delta; the fixed
    radius-2 circle keeps the tail of every catalog map far below 1e-14.
    """
    if m.map_class != "Sigma":
        raise ValueError("Laurent extraction is defined for Sigma maps only")
    theta = np.linspace(0.0, 2.0 * math.pi, nodes, endpoint=False)
    z = radius * np.exp(1j * theta)
    g = m.value(z) - z
    ns = np.arange(n_max + 1)
    # b_n = (1/2pi) int g(r e^{it}) r^n e^{int} dt
    kernel = np.exp(1j * theta[None, :] * ns[:, None]) * radius ** ns[:, None]
    return (kernel @ g) / nodes


def gronwall_sum(m: UnivalentMap, n_max: int = 64) -> float:
    """sum_{n<=n_max} n |b_n|^2 for a Sigma map.

    Uses closed-form coefficients when available, contour extraction
    otherwise; the area bound caps this at 1 for univalent maps.
    """
    if m.map_class != "Sigma":
        raise ValueError("gronwall_sum is defined for Sigma maps only")
    if m.coefficients is not None:
        bs = np.asarray(m.coefficients, dtype=np.complex128)
    else:
        bs = laurent_coefficients(m, n_max)
    ns = np.arange(len(bs))
    take = ns <= n_max
    return float(np.sum(ns[take] * np.abs(bs[take]) ** 2))
