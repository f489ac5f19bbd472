"""Winding number, complex Zak phase, and correlation-symmetry certificates.

The winding number counts how often the off-diagonal Bloch amplitude v_k
encircles the origin across the Brillouin zone, with the sign fixed so the
edge-mode-rich side w > v carries omega = alpha (and v > w carries
alpha - 1). Within the PT-symmetric sector the real part of the complex
Zak phase of the lower band is locked to pi * omega; in the PT-broken
wedge a non-quantized real correction accumulates on the momenta where
|v_k| < u.

The Zak phase is computed from the analytic Berry connection of the lower
band,

    A(k) = -1/2 phi'(k) [1 - i u / sqrt(|v_k|^2 - u^2)],  phi = arg v_k,

integrated over the zone. A discretized biorthogonal Wilson loop lives in
the test suite as the independent oracle for this closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import GaplessWinding, GridTooCoarse, OddDimension
from .lattice import ChainSpec, PTClass, _integers, classify_pt, vk

TOL_ZAK = 1e-6
TOL_SYM = 1e-8
_MAX_NK = 2**16


@dataclass(frozen=True)
class TopologyResult:
    winding: int
    zak: complex
    re_zak_deviation: float
    pt_class: PTClass


@dataclass(frozen=True)
class SymmetryReport:
    """Operator-norm residuals of the two correlation-spectrum closures.

    ``t_plus_residual``  : || U_T C* U_T^dag - C ||  (conjugation pairing)
    ``ph_residual``      : || u_ph C^dag u_ph^dag + C - 1 ||  (particle-hole)

    u_ph is sigma_z per cell. U_T is the real-space parity-time unitary: the
    per-cell sigma_x sublattice swap composed with reflection of the cell
    order. In the Bloch basis parity is the bare sigma_x, but on the lattice
    it must carry the spatial reflection; with the on-site swap alone the
    residual stays O(1) even for clean periodic chains, because transposing
    the hopping direction is not an on-site operation. Either residual
    vanishing certifies the corresponding eigenvalue pairing (nu <-> nu*
    and nu <-> 1 - nu*) of the subsystem spectrum.
    """

    t_plus_residual: float
    ph_residual: float
    t_plus_ok: bool
    ph_ok: bool
    tol: float


def winding_number(spec: ChainSpec, n_k: int = 4096) -> int:
    """Integer winding of v_k, by unwrapped phase accumulation.

    Phase increments between consecutive grid points are wrapped to
    (-pi, pi]; the accumulated total must land on an integer multiple of
    2 pi to within 1% or the grid is rejected.
    """
    spec.require_translation_invariant("winding_number")
    [n_k] = _integers([n_k], "the momentum count n_k")
    if n_k < 8:
        raise ValueError("n_k too small")
    k = -np.pi + 2.0 * np.pi * np.arange(n_k + 1) / n_k
    # conj(v_k) orients the loop so that w > v gives omega = +alpha
    z = np.conj(np.asarray(vk(spec, k)))
    if np.any(np.abs(z) < 1e-12 * (abs(spec.v) + abs(spec.w))):
        raise GaplessWinding(
            "v_k vanishes on the grid; winding undefined (PT-broken interior)"
        )
    increments = np.angle(z[1:] / z[:-1])
    total = float(np.sum(increments)) / (2.0 * np.pi)
    nearest = round(total)
    if abs(total - nearest) > 0.01:
        raise GridTooCoarse(
            f"winding accumulation {total} is not integer to 1%; refine n_k"
        )
    return int(nearest)


def _phi_prime(spec: ChainSpec, k: np.ndarray) -> np.ndarray:
    """d/dk arg v_k = Im(v_k' / v_k), exact."""
    a = spec.alpha
    v = np.asarray(vk(spec, k))
    dv = (
        -1j * (a - 1) * spec.v * np.exp(-1j * (a - 1) * k)
        + 1j * a * spec.w * np.exp(-1j * a * k)
    )
    return (dv / v).imag


def _zak_symmetric(spec: ChainSpec, n_k: int, tol: float) -> complex:
    """Trapezoid (= periodic rectangle) integration with grid doubling."""

    def quad(n: int) -> complex:
        k = -np.pi + 2.0 * np.pi * np.arange(n) / n
        u = spec.u_eff
        s = np.sqrt((np.abs(np.asarray(vk(spec, k))) ** 2 - u * u).astype(complex))
        integrand = -0.5 * _phi_prime(spec, k) * (1.0 - 1j * u / s)
        return complex(np.sum(integrand) * 2.0 * np.pi / n)

    # compare at least once, at 2 n_k, however large n_k is
    prev, n = quad(n_k), 2 * n_k
    while True:
        cur = quad(n)
        if abs(cur - prev) <= tol:
            return cur
        if 2 * n > _MAX_NK:
            raise GridTooCoarse(
                f"Zak phase did not converge to {tol} by n_k = {n}; "
                "the spec is too close to an exceptional point"
            )
        prev, n = cur, 2 * n


@cache
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of one order, computed once.

    Golub-Welsch: the nodes are the eigenvalues of the Legendre Jacobi
    matrix, zero diagonal and off-diagonal k / sqrt(4 k^2 - 1). One Newton
    step on P_n polishes them, and the weights are 2 / ((1 - x^2) P_n'(x)^2),
    both from the three-term recurrence.
    """

    def legendre(x):
        """P_n(x) and P_n'(x)."""
        p0, p1 = np.ones_like(x), x
        for j in range(2, order + 1):
            p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
        return p1, order * (x * p1 - p0) / (x * x - 1.0)

    k = np.arange(1.0, order)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    p, dp = legendre(x)
    x = x - p / dp
    _, dp = legendre(x)
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


def _gauss_cheb_segment(f, a: float, b: float, order: int) -> float:
    """Integrate f over (a, b) with inverse-square-root endpoint behavior.

    Substituting k = mid + half*sin(theta) absorbs both endpoint
    singularities into the Jacobian, leaving a smooth integrand for
    Gauss-Legendre in theta.
    """
    nodes, weights = _legendre_rule(order)
    theta = 0.5 * np.pi * nodes
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    k = mid + half * np.sin(theta)
    jac = half * np.cos(theta) * 0.5 * np.pi
    return float(np.sum(weights * f(k) * jac))


def _zak_broken(spec: ChainSpec, tol: float) -> complex:
    """PT-broken wedge: quantized part pi*omega plus the real correction on
    I = {k : |v_k| < u} and the imaginary part on its complement."""
    u = spec.u_eff
    omega = winding_number(spec)
    # |v_k|^2 = v^2 + w^2 - 2 v w cos k crosses u^2 at cos k* = c0; at v w = 0
    # it is constant and never crosses
    vw2 = 2.0 * spec.v * spec.w
    c0 = (spec.v**2 + spec.w**2 - u * u) / vw2 if vw2 else np.inf
    if abs(c0) >= 1.0:
        raise GridTooCoarse("no |v_k| = u crossing found in the broken class")
    kstar = float(np.arccos(c0))
    if spec.v * spec.w > 0:
        inside = [(-kstar, kstar)]
        outside = [(-np.pi, -kstar), (kstar, np.pi)]
    else:
        inside = [(-np.pi, -kstar), (kstar, np.pi)]
        outside = [(-kstar, kstar)]

    def f(k):
        absv = np.abs(np.asarray(vk(spec, k)))
        return 0.5 * _phi_prime(spec, k) * u / np.sqrt(np.abs(u * u - absv**2))

    def total(order: int) -> complex:
        re = np.pi * omega + sum(_gauss_cheb_segment(f, a, b, order) for a, b in inside)
        im = sum(_gauss_cheb_segment(f, a, b, order) for a, b in outside)
        return complex(re, im)

    coarse, fine = total(200), total(400)
    if abs(fine - coarse) > tol:
        raise GridTooCoarse(f"broken-class Zak quadrature disagreement {abs(fine - coarse):.2e}")
    return fine


def zak_phase(spec: ChainSpec, n_k: int = 4096, tol_zak: float = TOL_ZAK) -> complex:
    """Complex Zak phase of the lower band over the Brillouin zone."""
    spec.require_translation_invariant("zak_phase")
    [n_k] = _integers([n_k], "the momentum count n_k")
    if classify_pt(spec) is PTClass.BROKEN:
        return _zak_broken(spec, tol_zak)
    return _zak_symmetric(spec, n_k, tol_zak)


def characterize(
    spec: ChainSpec, n_k: int = 4096, tol_zak: float = TOL_ZAK
) -> TopologyResult:
    """Winding, Zak phase, and their quantization deviation in one record."""
    omega = winding_number(spec, n_k)
    q = zak_phase(spec, n_k, tol_zak)
    return TopologyResult(
        winding=omega,
        zak=q,
        re_zak_deviation=abs(q.real - np.pi * omega),
        pt_class=classify_pt(spec),
    )


def symmetry_closure(corr: np.ndarray, tol_sym: float = TOL_SYM) -> SymmetryReport:
    """Residuals of the conjugation (T+) and particle-hole closures of a
    subsystem correlation matrix, in operator norm."""
    C = np.asarray(corr)
    n = C.shape[0]
    if C.shape != (n, n) or n % 2:
        raise OddDimension(f"need an even square matrix over whole cells, got {C.shape}")
    # parity: reflect the cell order and swap sublattices within each cell
    cells = n // 2
    perm = np.empty(n, dtype=int)
    perm[0::2] = 2 * (cells - 1 - np.arange(cells)) + 1
    perm[1::2] = 2 * (cells - 1 - np.arange(cells))
    t_plus = float(np.linalg.norm(C.conj()[np.ix_(perm, perm)] - C, 2))
    sign = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)  # sigma_z per cell
    ph = float(
        np.linalg.norm(sign[:, None] * C.conj().T * sign[None, :] + C - np.eye(n), 2)
    )
    return SymmetryReport(
        t_plus_residual=t_plus,
        ph_residual=ph,
        t_plus_ok=t_plus <= tol_sym,
        ph_ok=ph <= tol_sym,
        tol=tol_sym,
    )
