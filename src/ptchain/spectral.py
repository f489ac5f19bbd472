"""Biorthogonal diagonalization, half filling, and ground-state observables.

For a non-Hermitian single-particle matrix H the working basis is the
biorthogonal pair H R_n = E_n R_n, H^dag L_n = E_n^* L_n with
<L_m|R_n> = delta_mn. The biorthogonal ground state at half filling fills
every mode with Re E < 0; a chain on its critical line additionally hosts
modes at exactly +-iu, which are self-paired under the particle-hole map
E -> -E^* and therefore must each carry occupation 1/2 (the symmetric
"Bell" filling of the two edge states). With those weights the two-point
function is

    C_ij = <G_L| c_i^dag c_j |G_R> = sum_n s_n conj(L_n)_i (R_n)_j,

the convention pinned down by the exact Fock-space oracle in the test
suite.

Every chain of the family is bipartite with real hoppings and a purely
imaginary sublattice potential, so in the sublattice gauge
S = diag(1, i, 1, i, ...) the matrix -i S^-1 H S is real. Dense
eigensolves run there, in real arithmetic (LAPACK dgeev rather than
zgeev), and map back with E = i lambda and eigenvectors S v. The pairing
E <-> -E^* is then the exact conjugate pairing of a real spectrum, and
modes on the imaginary axis come out at Re E = 0 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from .errors import AmbiguousFilling, DefectiveMatrix
from .lattice import Boundary, ChainSpec, _hopping_block, build_real_space, vk

#: Post-normalization bound on max |<L_m|R_n> - delta_mn|.
TOL_BIORTH = 1e-9

#: Half-width of the Re E = 0 band used to recognize imaginary edge modes.
TOL_ZERO = 1e-8

#: Eigenvalues closer than this (relative to the spectral radius) are
#: treated as one degenerate block and re-biorthogonalized together.
_CLUSTER_REL = 1e-7

#: Smallest distance kappa from an exceptional point at which a spectrum is
#: still filled; 1/kappa is the eigenvalue condition number. Exact
#: exceptional points of the family measure kappa <= 6.7e-8, detuning
#: 1e-14 gives kappa >= 1.2e-7 and the default detuning kappa >= 1.2e-6.
_KAPPA_EP = 1e-7


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Energies plus matched left/right eigenvector columns.

    ``left_vectors`` are normalized so that left^dag @ right = identity to
    within ``biorth_residual``.
    """

    energies: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    biorth_residual: float

    @property
    def n(self) -> int:
        return len(self.energies)


@dataclass(frozen=True)
class OccupationSet:
    """Complex mode occupancies s_n aligned with a BiorthogonalSystem."""

    weights: np.ndarray
    filling: Fraction

    @property
    def total(self) -> float:
        return float(np.sum(self.weights))


@dataclass(frozen=True)
class DensityProfile:
    """Biorthogonal particle densities per site and per cell."""

    site: np.ndarray  # n_{i,a}, length 2L, cell-major A,B ordering
    cell: np.ndarray  # n_i = n_{i,A} + n_{i,B}, length L

    @property
    def site_a(self) -> np.ndarray:
        return self.site[0::2]

    @property
    def site_b(self) -> np.ndarray:
        return self.site[1::2]


def _sublattice_gauge(X: np.ndarray) -> np.ndarray:
    """-i S^-1 X S with S = diag(1, i, 1, i, ...), on the last two axes.

    The similarity only multiplies entries by +-1 and +-i, so it is exact in
    floating point. The result is float64 when it is exactly real, which it
    is for every Hamiltonian of the family, and complex otherwise.
    """
    g = np.ones(X.shape[-1], dtype=complex)
    g[1::2] = 1j
    Y = -1j * (g.conj()[:, None] * X * g)
    return Y if np.any(Y.imag) else Y.real


def biorthogonal_diagonalize(
    H: np.ndarray, tol_biorth: float = TOL_BIORTH
) -> BiorthogonalSystem:
    """Diagonalize a dense complex matrix into a biorthonormal system.

    The eigensolve runs on -i S^-1 H S in the sublattice gauge, real for
    every chain of the family; S is unitary, so overlaps are unchanged.
    Eigenvalues are ordered deterministically by (Re, Im, input index).
    Nearly degenerate eigenvalues are re-biorthogonalized block-wise via the
    overlap matrix of the unit left and right vectors. Its smallest singular
    value (|<L|R>| for a single eigenvalue) is the distance kappa from an
    exceptional point, checked by :func:`_require_off_exceptional_point`.
    """
    H = np.asarray(H, dtype=complex)
    if not np.all(np.isfinite(H)):
        raise ValueError("Hamiltonian has non-finite entries")
    lam, vl, vr = scipy.linalg.eig(_sublattice_gauge(H), left=True, right=True)
    w = 1j * lam
    order = np.lexsort((np.arange(len(w)), w.imag, w.real))
    E = w[order]
    # back from the gauge: R = S vr, L = S vl. The vectors are float64 when
    # every lambda is real (every E on the imaginary axis), hence the cast.
    R = vr[:, order].astype(complex)
    L = vl[:, order].astype(complex)
    R[1::2] *= 1j
    L[1::2] *= 1j

    kappa = 1.0
    for lo, hi in _cluster_blocks(E, _CLUSTER_REL * max(np.max(np.abs(E)), 1.0)):
        if hi - lo == 1:
            d = np.vdot(L[:, lo], R[:, lo])
            kappa = min(kappa, _require_off_exceptional_point(abs(d)))
            L[:, lo] /= np.conj(d)
        else:
            M = L[:, lo:hi].conj().T @ R[:, lo:hi]
            sv_min = np.linalg.svd(M, compute_uv=False)[-1]
            kappa = min(kappa, _require_off_exceptional_point(sv_min))
            # L_blk <- L_blk @ inv(M)^dag  so that  L_blk^dag R_blk = I
            L[:, lo:hi] = L[:, lo:hi] @ np.linalg.inv(M).conj().T
    gram = L.conj().T @ R
    residual = float(np.max(np.abs(gram - np.eye(len(E)))))
    if residual > tol_biorth:
        raise DefectiveMatrix(
            f"biorthogonality residual {residual:.2e} exceeds {tol_biorth:.1e} "
            f"at a distance kappa = {kappa:.1e} from an exceptional point; "
            "increase the detuning"
        )
    return BiorthogonalSystem(E, R, L, residual)


def _require_off_exceptional_point(kappa: float) -> float:
    """kappa, the distance from an exceptional point that every route checks
    before it decides the half filling, or :class:`DefectiveMatrix` when it
    is below ``_KAPPA_EP``."""
    if not kappa >= _KAPPA_EP:
        raise DefectiveMatrix(
            f"kappa = {kappa:.1e} below {_KAPPA_EP:.0e}: eigenvectors coalesce "
            "at an exceptional point; increase the detuning"
        )
    return kappa


def _cluster_blocks(E: np.ndarray, tol: float) -> list[tuple[int, int]]:
    """Consecutive index ranges of (Re, Im)-sorted eigenvalues closer than tol."""
    blocks = []
    lo = 0
    for i in range(1, len(E) + 1):
        if i == len(E) or abs(E[i] - E[i - 1]) > tol:
            blocks.append((lo, i))
            lo = i
    return blocks


def half_filling_weights(energies: np.ndarray, tol_zero: float = TOL_ZERO) -> np.ndarray:
    """Occupancies s_n at biorthogonal half filling.

    Modes with Re E < -tol_zero are filled, Re E > +tol_zero empty; modes on
    the imaginary axis (|Re E| <= tol_zero, Im E != 0) each take weight 1/2,
    the unique choice compatible with the particle-hole constraint
    s^* + s = 1 for self-paired modes. Real zero modes make the filling
    ambiguous.
    """
    E = np.asarray(energies)
    s = np.zeros(len(E))
    s[E.real < -tol_zero] = 1.0
    on_axis = np.abs(E.real) <= tol_zero
    imaginary = on_axis & (np.abs(E.imag) > tol_zero)
    s[imaginary] = 0.5
    if np.any(on_axis & ~imaginary):
        bad = E[on_axis & ~imaginary]
        raise AmbiguousFilling(
            f"real zero modes {bad} make half filling ambiguous; "
            "detune the spec away from the exact critical point"
        )
    if abs(np.sum(s) - len(E) / 2) > 1e-9:
        raise AmbiguousFilling(
            f"half filling not reached: sum of weights {np.sum(s)} != {len(E) / 2}"
        )
    return s


def select_half_filling(
    sys: BiorthogonalSystem, tol_zero: float = TOL_ZERO
) -> OccupationSet:
    """OccupationSet for the biorthogonal ground state at half filling."""
    s = half_filling_weights(sys.energies, tol_zero)
    return OccupationSet(weights=s, filling=Fraction(1, 2))


def occupied_correlation(sys: BiorthogonalSystem, occ: OccupationSet) -> np.ndarray:
    """Full-system two-point function C = sum_n s_n conj(L_n) R_n^T."""
    return (sys.left_vectors.conj() * occ.weights[None, :]) @ sys.right_vectors.T


def _half_filled_energies(a: np.ndarray, u: float, tol_zero: float) -> np.ndarray:
    """e per mode of a clean chain whose lower level alone is filled at half
    filling, 0 for a half-filled pair; E0 = -sum(e).

    With u uniform, H^2 = diag(V V^T - u^2, V^T V - u^2), so every singular
    triple (a, x, y) of the hopping block V spans the 2 x 2 block
    [[i u, a], [a, -i u]] of H on (x, 0), (0, y); a momentum of a periodic
    chain is the same block with a = |v_k|. Its levels are E = -+e,
    e = sqrt((a - u)(a + u)), on the imaginary axis (Re E = 0 exactly)
    below a = u. The distance kappa = |e| / max(a, u) from an exceptional
    point is checked first where u > 0 (a Hermitian chain cannot be
    defective); :func:`half_filling_weights` then fills the lower level
    alone where e is real and half of each level of an imaginary pair.
    """
    e = np.sqrt(((a - u) * (a + u)).astype(complex))
    if u > 0:
        _require_off_exceptional_point(float(np.min(np.abs(e) / np.maximum(a, u))))
    weights = half_filling_weights(np.concatenate([-e, e]), tol_zero)
    filled = weights[: len(a)] != weights[len(a):]
    return np.where(filled, e.real, 0.0)


def ground_state_energy(spec: ChainSpec, tol_zero: float = TOL_ZERO) -> complex:
    """Half-filled ground-state energy sum_n s_n E_n.

    Each route takes the kernel its correlation block takes. Clean chains
    sum the filled levels of :func:`_half_filled_energies` over their mode
    amplitudes: |v_k| per momentum on a periodic chain, the singular values
    of the L x L hopping block on an open one. Disordered chains go through
    :func:`biorthogonal_diagonalize` and :func:`select_half_filling`.
    """
    if not spec.is_translation_invariant:
        sys = biorthogonal_diagonalize(build_real_space(spec))
        occ = select_half_filling(sys, tol_zero)
        return complex(np.sum(occ.weights * sys.energies))
    if spec.boundary is Boundary.PBC:
        a = np.abs(vk(spec, 2.0 * np.pi * np.arange(spec.cells) / spec.cells))
    else:
        a = np.linalg.svd(_hopping_block(spec), compute_uv=False)
    return complex(-np.sum(_half_filled_energies(a, spec.u_eff, tol_zero)))


def density_profile(sys: BiorthogonalSystem, occ: OccupationSet) -> DensityProfile:
    """Site and cell densities n_{i,a} = C_ii of the occupied state."""
    # Only the diagonal is needed: C_ii = sum_n s_n conj(L_n)_i (R_n)_i.
    site = np.einsum(
        "in,n,in->i", sys.left_vectors.conj(), occ.weights, sys.right_vectors
    )
    return DensityProfile(site=site, cell=site[0::2] + site[1::2])


def ph_pairing_residual(energies: np.ndarray) -> float:
    """max over modes of the distance from {-E^*} to the spectrum.

    Zero (to numerical accuracy) whenever the pseudo-Hermiticity
    sigma_z H^dag sigma_z = -H holds, disordered chains included.
    """
    E = np.asarray(energies)
    target = -E.conj()
    return float(np.max(np.min(np.abs(E[None, :] - target[:, None]), axis=1)))
