"""Analytic edge/interface bound states and the lattice interface solver.

Continuum picture: near a critical line the chain reduces to a Dirac form
whose edge equation at E = +-iu factorizes; the exponential ansatz
exp(beta x) gives the characteristic roots

    beta = -1 (multiplicity alpha - 1),   beta = (v - w)/w,

and each root with Re beta < 0 is one normalizable edge-mode pair. For the
interface between a gapped Hermitian region (mass m1) and a gain/loss
region on its critical line (m2 = u), the pinned mode has

    E = i a u,  a = sqrt(-m1 / (2u - m1)) in (0, 1)   for m1 < 0,

with decay rates kappa2 = -a u and kappa1 = -sqrt(m1^2 + a^2 u^2). The
m1 > 0 branch of the squared equation fails the sublattice-ratio matching
and is rejected as extraneous.

Lattice interface: per-side exponential ansatz with the bulk dispersion
quadratics

    E^2        = v1^2 + w^2 - v1 w (beta_L + 1/beta_L),
    E^2 + u^2  = v2^2 + w^2 - v2 w (beta_R + 1/beta_R),

roots picked inside the unit disk, energy refined by a damped complex
secant on the boundary-matching residual, seeded from the continuum value
at m1 = w - v1. The dense diagonalization of the same geometry is the
oracle in the test suite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateW,
    ExtraneousRoot,
    NoBoundState,
    NoConvergence,
    NoLocalizedMode,
    NoRootInDisk,
    PTChainError,
    _caller_stacklevel,
)
from .lattice import InterfaceSpec, _gauge_matrix
from .spectral import DensityProfile, _real_gauge_system


@dataclass(frozen=True)
class EdgeRootSet:
    """Characteristic roots of the continuum edge equation, with multiplicity."""

    roots: tuple[complex, ...]
    normalizable_count: int

    @property
    def total_multiplicity(self) -> int:
        return len(self.roots)


@dataclass(frozen=True)
class BoundState:
    """One interface/edge mode. Continuum solves fill the kappa fields,
    lattice solves fill the beta fields."""

    E: complex
    a: float
    kappa1: float | None = None
    kappa2: float | None = None
    beta_l: complex | None = None
    beta_r: complex | None = None
    sublattice_ratio: complex | None = None
    profile: np.ndarray | None = None
    residual: float | None = None


def continuum_edge_roots(alpha: int, v: float, w: float) -> EdgeRootSet:
    """Roots of (beta + 1)^(alpha-1) [(v - w) - w beta] = 0."""
    if w == 0:
        raise DegenerateW("w = 0 degenerates the edge characteristic equation")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    roots = [complex(-1.0)] * (alpha - 1) + [complex((v - w) / w)]
    count = sum(1 for b in roots if b.real < 0)
    return EdgeRootSet(tuple(roots), count)


def interface_continuum(m1: float, u: float) -> BoundState:
    """Closed-form interface mode for Hermitian mass m1 against a critical
    gain/loss region of strength u."""
    if u <= 0:
        raise ValueError(f"u must be > 0, got {u}")
    if m1 > 0:
        raise ExtraneousRoot(
            f"m1 = {m1} > 0 solves only the squared equation; the sublattice "
            "ratios cannot match and no bound state exists"
        )
    if m1 == 0:
        raise NoBoundState("m1 = 0: the mode merges into the bulk on both sides")
    a = float(np.sqrt(-m1 / (2.0 * u - m1)))
    if a == 1.0:
        raise NoBoundState(
            f"u = {u} vanishes against m1 = {m1}: the mode merges into the "
            "bulk of the gain/loss side"
        )
    E = 1j * a * u
    kappa2 = -a * u
    kappa1 = -float(np.sqrt(m1 * m1 + a * a * u * u))
    ratio = 1j * (a + 1.0) / (1.0 - a)  # psi_A / psi_B on the gain/loss side
    return BoundState(
        E=E, a=a, kappa1=kappa1, kappa2=kappa2, sublattice_ratio=complex(ratio)
    )


def _root_in_disk(A: float, B: complex) -> complex:
    """Root of A b^2 - B b + A = 0, A != 0, with |b| < 1 (roots multiply to 1)."""
    disc = np.sqrt(B * B - 4.0 * A * A + 0j)
    r1 = (B + disc) / (2.0 * A)
    r2 = (B - disc) / (2.0 * A)
    b = r1 if abs(r1) < abs(r2) else r2
    if abs(abs(b) - 1.0) < 1e-12:
        raise NoRootInDisk(
            f"both dispersion roots sit on the unit circle at |b| = {abs(b)}"
        )
    return complex(b)


def _matching_residual(
    E: complex, spec: InterfaceSpec
) -> tuple[complex, tuple[complex, complex, complex, complex]]:
    """Boundary-matching residual at E, and the sides it matched: the roots
    (beta_L, beta_R) and the sublattice ratios psi_B / psi_A (left, right)."""
    v1, v2, w, u = spec.v1, spec.v2, spec.w, spec.u
    beta_l = _root_in_disk(v1 * w, v1 * v1 + w * w - E * E)
    beta_r = _root_in_disk(v2 * w, v2 * v2 + w * w - (E * E + u * u))
    ratio_l = E / (v1 - w * beta_l)
    ratio_r = (E - 1j * u) / (v2 - w / beta_r)
    f = (E - v1 / ratio_l) * (E - 1j * u - v2 * ratio_r) - w * w
    return f, (beta_l, beta_r, ratio_l, ratio_r)


def interface_lattice_solve(
    spec: InterfaceSpec,
    tol: float = 1e-12,
    max_iter: int = 200,
    qcp_tol: float = 1e-9,
) -> BoundState:
    """Interface-pinned mode of the lattice geometry by damped complex secant.

    Seeded from the continuum solution with m1 = w - v1 (the Hermitian-side
    gap parameter in the continuum convention); the seed only starts the
    iteration, so its O(1) error is harmless. A vanishing leading
    coefficient v1 w or v2 w of a dispersion quadratic raises before the
    secant starts: :class:`DegenerateW` at once for w = 0,
    :class:`NoRootInDisk` after the seed for v1 = 0 or v2 = 0.
    """
    if spec.w == 0:
        raise DegenerateW("w = 0 decouples the cells; the interface ansatz degenerates")
    if abs(spec.u - (spec.w - spec.v2)) > qcp_tol * max(1.0, abs(spec.w)):
        warnings.warn(
            f"right side is off its critical line (u = {spec.u}, "
            f"w - v2 = {spec.w - spec.v2}); solving anyway",
            UserWarning,
            stacklevel=_caller_stacklevel(),
        )
    seed = interface_continuum(spec.w - spec.v1, spec.u)
    if spec.v1 * spec.w == 0 or spec.v2 * spec.w == 0:
        raise NoRootInDisk(f"v1 w = {spec.v1 * spec.w}, v2 w = {spec.v2 * spec.w}: a "
                           "dispersion root sits at 0 and its partner at infinity")
    e0 = seed.E
    e1 = e0 * (1.0 + 1e-4) + 1e-8j
    try:
        f0, _ = _matching_residual(e0, spec)
        f1, sides = _matching_residual(e1, spec)
        max_step = 0.25 * max(spec.u, abs(e0))
        for _ in range(max_iter):
            if abs(f1) < tol:
                break
            denom = f1 - f0
            if denom == 0:
                raise NoConvergence("secant stalled on a flat residual")
            step = -f1 * (e1 - e0) / denom
            if abs(step) > max_step:
                step *= max_step / abs(step)
            e0, f0 = e1, f1
            e1 = e1 + step
            f1, sides = _matching_residual(e1, spec)
        residual = abs(f1)
        if not residual <= 1e-10:  # a NaN residual has not converged either
            raise NoConvergence(
                f"matching residual {residual:.2e} after {max_iter} iterations"
            )
        beta_l, beta_r, _, ratio_r = sides
        ratio = complex(1.0 / ratio_r)
        profile = _exponential_profile(spec, e1, *sides)
    except ZeroDivisionError as exc:
        # a vanishing sublattice ratio or coupling (w -> 0, say) leaves the
        # matching equations without a solution of this ansatz
        raise NoConvergence(f"matching equations divide by zero near E = {e1:.4g}") from exc
    return BoundState(
        E=complex(e1),
        a=float(e1.imag / spec.u),
        beta_l=beta_l,
        beta_r=beta_r,
        sublattice_ratio=ratio,
        profile=profile,
        residual=residual,
    )


def _exponential_profile(
    spec: InterfaceSpec, E: complex, beta_l: complex, beta_r: complex,
    ratio_l: complex, ratio_r: complex,
) -> np.ndarray:
    """Per-site amplitudes of the exponential interface ansatz, anchored at
    the last Hermitian cell with psi_A = 1."""
    v1, w = spec.v1, spec.w
    a_if = 1.0  # psi_A at interface cell (last left cell)
    b_if = ratio_l * a_if
    # first right cell from the interface equation -w psi^A_{i+1} = [E - v1 (A/B)_L] psi^B_i
    a_right = -(E - v1 / ratio_l) * b_if / w
    b_right = ratio_r * a_right
    # cell amplitudes beta_L^(L1 - 1 - n) on the left, beta_R^n on the right
    left = np.outer(beta_l ** np.arange(spec.cells_left - 1, -1, -1), [a_if, b_if])
    right = np.outer(beta_r ** np.arange(spec.cells_right), [a_right, b_right])
    psi = np.concatenate([left, right]).ravel()
    return psi / np.max(np.abs(psi))


def interface_density(
    spec: InterfaceSpec, ipr_threshold: float | None = None
) -> tuple[DensityProfile, BoundState]:
    """Biorthogonal density of the interface mode from dense diagonalization
    of the real gauge matrix (``lattice._gauge_matrix``), in
    ``spectral._real_gauge_system``; no complex Hamiltonian is formed.

    The mode is the eigenvalue nearest the lattice (fallback: continuum)
    prediction, among those with 0 < Im E < u, whose right eigenvector has
    inverse participation ratio above the threshold (default 4 / n_sites).
    On too few cells per side no mode qualifies (about 14 are needed at
    v1 = 1.1, v2 = 0.5, w = 1, u = 0.5), and :class:`NoLocalizedMode` is
    raised.
    """
    system = _real_gauge_system(_gauge_matrix(spec)).unpacked()
    try:
        predicted = interface_lattice_solve(spec).E
    except PTChainError:
        predicted = interface_continuum(spec.w - spec.v1, spec.u).E
    threshold = ipr_threshold if ipr_threshold is not None else 4.0 / spec.n_sites
    E = system.energies
    inside = np.flatnonzero((E.imag > 0) & (E.imag < spec.u))
    order = inside[np.argsort(np.abs(E[inside] - predicted))]
    for idx in order[:8]:
        psi = system.right_vectors[:, idx]
        weight = np.abs(psi) ** 2
        ipr = float(np.sum(weight**2) / np.sum(weight) ** 2)
        if ipr > threshold:
            site = system.left_vectors[:, idx].conj() * psi
            density = DensityProfile(site=site, cell=site[0::2] + site[1::2])
            state = BoundState(
                E=complex(system.energies[idx]),
                a=float(system.energies[idx].imag / spec.u),
                profile=psi.copy(),
            )
            return density, state
    raise NoLocalizedMode(
        f"no mode with 0 < Im E < u = {spec.u} near E = {predicted:.4f} has IPR above "
        f"{threshold:.3e} on {spec.cells_left} + {spec.cells_right} cells per side"
    )
