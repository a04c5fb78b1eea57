"""Elliptic integrals, Jacobi theta machinery, an explicit Green-type
function on a rectangle torus, and the sharp area-type / pointwise bounds
for univalent maps built on top of them."""

from .catalog import UnivalentMap, catalog, gronwall_sum, resolve_map
from .elliptic import EllipticParams, complete_E, complete_K, params_from_x0, x0_from_zeta_abs
from .errors import (
    BranchAmbiguityError,
    BranchCutError,
    DomainError,
    PoleError,
    QuadratureError,
    ThetaOverflowError,
)
from .inequalities import (
    BasePoint,
    PsiEvaluator,
    VerificationReport,
    goluzin_bound,
    gronwall_check,
    koebe_bieberbach_bound,
    pointwise_from_area,
    torus_area_crosscheck,
    verify_area_disk,
    verify_area_sigma,
)
from .maps import BridgeMaps, eta, eta_inv, phi_from_psi, sigma, tau, tau_prime
from .quadrature import QuadratureResult, QuadratureSpec, integrate_disk, integrate_exterior_disk, integrate_rect
from .theta import JacobiContext, jacobi_Z, jacobi_sn_cn_dn, theta0, theta0_prime
from .torus import GreenEvaluator, Q_D, TorusGeometry, dz_Q_D, dzbar_Q_D, green_G, kernel_norm_integral

__version__ = "0.1.0"

__all__ = [
    "BasePoint",
    "BranchAmbiguityError",
    "BranchCutError",
    "BridgeMaps",
    "DomainError",
    "EllipticParams",
    "GreenEvaluator",
    "JacobiContext",
    "PoleError",
    "PsiEvaluator",
    "Q_D",
    "QuadratureError",
    "QuadratureResult",
    "QuadratureSpec",
    "ThetaOverflowError",
    "TorusGeometry",
    "UnivalentMap",
    "VerificationReport",
    "catalog",
    "complete_E",
    "complete_K",
    "dz_Q_D",
    "dzbar_Q_D",
    "eta",
    "eta_inv",
    "goluzin_bound",
    "green_G",
    "gronwall_check",
    "gronwall_sum",
    "integrate_disk",
    "integrate_exterior_disk",
    "integrate_rect",
    "jacobi_Z",
    "jacobi_sn_cn_dn",
    "kernel_norm_integral",
    "koebe_bieberbach_bound",
    "params_from_x0",
    "phi_from_psi",
    "pointwise_from_area",
    "resolve_map",
    "sigma",
    "tau",
    "tau_prime",
    "theta0",
    "theta0_prime",
    "torus_area_crosscheck",
    "verify_area_disk",
    "verify_area_sigma",
    "x0_from_zeta_abs",
]
