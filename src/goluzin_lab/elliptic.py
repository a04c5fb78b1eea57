"""Complete elliptic integrals and the modulus parameter pack.

``complete_K`` and ``complete_E`` use the arithmetic-geometric-mean
iteration (quadratic convergence, ~1e-15 relative accuracy in double
precision).  ``params_from_x0`` assembles every derived modulus quantity
the rest of the package consumes; all of them are plain floats and the
pack is immutable, so sharing across threads is safe.

Conventions: the modulus convention is used throughout (arguments are k,
not m = k**2).  For 0 < x0 < 1,

    kappa  = 2*x0/(1 + x0**2)          kappa' = (1 - x0**2)/(1 + x0**2)
    l      = (1 - kappa')/(1 + kappa') = x0**2
    M      = 1/(1 + kappa')            |zeta| = (1 + x0**2)/(2*x0) = 1/kappa

with quarter periods K = K(kappa), K' = K(kappa'), L = K(l), L' = K(l')
tied together by the modulus-halving (Landen) relations K = 2*M*L and
K' = M*L'.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from ._kernels import agm_complete
from .errors import DomainError

__all__ = [
    "EllipticParams",
    "complete_K",
    "complete_E",
    "params_from_x0",
    "x0_from_zeta_abs",
]


def complete_K(lam: float) -> float:
    """Complete elliptic integral of the first kind, modulus ``lam`` in [0, 1)."""
    lam = float(lam)
    if not 0.0 <= lam < 1.0:
        raise DomainError(f"complete_K requires 0 <= lam < 1, got {lam}")
    return agm_complete(lam)[0]


def complete_E(lam: float) -> float:
    """Complete elliptic integral of the second kind, modulus ``lam`` in [0, 1]."""
    lam = float(lam)
    if not 0.0 <= lam <= 1.0:
        raise DomainError(f"complete_E requires 0 <= lam <= 1, got {lam}")
    return agm_complete(lam)[1]


@dataclass(frozen=True)
class EllipticParams:
    """Every modulus-level constant derived from the base parameter x0."""

    x0: float
    kappa: float
    kappa_prime: float
    l: float
    l_prime: float
    M: float
    K: float
    K_prime: float
    E: float
    E_prime: float
    E_gap: float  # 1 - E/K, without the cancellation of forming it from E and K
    L: float
    L_prime: float
    nome_h: float
    zeta_abs: float

    def legendre_residual(self) -> float:
        """E*K' + E'*K - K*K' - pi/2; should vanish to ~1e-13."""
        return self.E * self.K_prime + self.E_prime * self.K - self.K * self.K_prime - math.pi / 2.0

    def landen_residuals(self) -> tuple[float, float]:
        """(K - 2*M*L, K' - M*L'); near x0 = 1 the first measures K's rounding."""
        return self.K - 2.0 * self.M * self.L, self.K_prime - self.M * self.L_prime

    def to_dict(self) -> dict:
        """Every field except ``E_gap``, plus the Legendre and Landen residuals."""
        out = {k: v for k, v in asdict(self).items() if k != "E_gap"}
        return out | {"legendre_residual": self.legendre_residual(), "landen_residuals": list(self.landen_residuals())}


def params_from_x0(x0: float) -> EllipticParams:
    """Build the full parameter pack for a base point ``0 < x0 < 1``."""
    x0 = float(x0)
    if not 0.0 < x0 < 1.0:
        raise DomainError(f"params_from_x0 requires 0 < x0 < 1, got {x0}")
    x0sq = x0 * x0
    kappa = 2.0 * x0 / (1.0 + x0sq)
    kappa_prime = (1.0 - x0sq) / (1.0 + x0sq)
    l = x0sq
    l_prime = math.sqrt((1.0 - x0) * (1.0 + x0) * (1.0 + x0sq))  # 1 - l^2 without rounding l
    big_m = 1.0 / (1.0 + kappa_prime)
    big_k, big_e, e_gap = agm_complete(kappa, kappa_prime)
    big_kp, big_ep, _ = agm_complete(kappa_prime, kappa)
    big_l = agm_complete(l, l_prime)[0]
    big_lp = agm_complete(l_prime, l)[0]
    nome = math.exp(-math.pi * big_kp / big_k)
    zeta_abs = (1.0 + x0sq) / (2.0 * x0)
    return EllipticParams(
        x0=x0,
        kappa=kappa,
        kappa_prime=kappa_prime,
        l=l,
        l_prime=l_prime,
        M=big_m,
        K=big_k,
        K_prime=big_kp,
        E=big_e,
        E_prime=big_ep,
        E_gap=e_gap,
        L=big_l,
        L_prime=big_lp,
        nome_h=nome,
        zeta_abs=zeta_abs,
    )


def x0_from_zeta_abs(zeta_abs: float) -> float:
    """Invert |zeta| = (1 + x0**2)/(2*x0) on the branch with 0 < x0 < 1.

    The returned root of ``x0**2 - 2*|zeta|*x0 + 1 = 0`` satisfies
    ``params_from_x0(x0).kappa == 1/|zeta|`` exactly in real arithmetic.
    Computed as ``1/(a + sqrt(a**2 - 1))``; ``a - sqrt(...)`` cancels.
    """
    a = float(zeta_abs)
    if not a > 1.0:
        raise DomainError(f"x0_from_zeta_abs requires |zeta| > 1, got {a}")
    return 1.0 / (a + math.sqrt(a - 1.0) * math.sqrt(a + 1.0))
