"""Correlation matrices, classified complex entanglement spectra, and the
branch-resolved complex entanglement entropy.

For a Gaussian biorthogonal ground state the reduced density matrix of a
block A is fixed by the subsystem correlation matrix, and

    S_A = -sum_n [ nu_n log nu_n + (1 - nu_n) log(1 - nu_n) ]

over its (generally complex) eigenvalues nu_n. The complex logarithm makes
this multivalued; this module implements four ways of resolving it:

``PRINCIPAL``
    Every log on the principal branch, arg in (-pi, pi]. Simple, but the
    real part then violates conformal scaling whenever complex eigenvalue
    pairs are present.
``BRANCH_CUT``
    One log per conjugate pair (two per quartet) is shifted by 2 pi, chosen
    so that each symmetry multiplet contributes its conformal share. An
    edge pair 1/2 +- i I then contributes

        -2 ln r + (4 phi - 2 pi) I - i pi,   r = sqrt(1/4 + I^2),
                                             phi = arctan(2 I),

    with the sign of the imaginary part fixed to -i pi, and a quartet
    {nu, nu*, 1-nu, 1-nu*} contributes the purely real
    -4 R ln r - 4 (1-R) ln rho + 4 I (phi + varphi - pi). Requires the
    spectrum to carry both the conjugation and particle-hole pairings.
``ABSOLUTE_VALUE``
    Magnitude logs only, log|.|; kept as the comparison prescription. It
    differs from BRANCH_CUT by exactly (4 phi - 2 pi) I per edge pair and
    by 4 I (phi + varphi - pi) per quartet, and develops kinks where
    quartets first enter the spectrum.
``REGULARIZED``
    BRANCH_CUT applied to the spectrum with its complex conjugate adjoined,
    then halved. This restores the conjugation partner that open boundaries
    or disorder remove at the state level, and is the only prescription
    defined when only the particle-hole pairing survives. It is evaluated
    mode by mode: the particle-hole closure guarantees each complex
    eigenvalue either sits at Re nu = 1/2 exactly (self-paired, half an
    edge-pair contribution) or has the partner 1 - nu* elsewhere in the
    spectrum (a quarter of the completed quartet each), so no numerical
    partner matching is needed. The subsystem eigensolve runs on a real
    matrix (see :func:`entropy_profile`), where that closure is exact: a
    self-paired mode is a real eigenvalue and sits at Re nu = 1/2 to the
    last bit, so the default ``tol_edge`` serves disordered chains too.

Classification of the spectrum into real modes, real pairs {nu, 1-nu},
edge pairs 1/2 +- i I, quartets, and residual particle-hole pairs
{nu, 1-nu*} is greedy nearest-distance matching at configurable
tolerances. Real modes are visited in (Re, Im, index) order, then complex
modes in (-|Im|, Re, Im, index) order. A partner lookup takes the nearest
free mode of the visited mode's kind (real or complex) within ``tol_pair``,
the lowest index on ties. When its candidates lie more than ``tol_pair``
apart, or a required partner is missing, the visited mode is demoted to
``UNPAIRED`` rather than guessed. A lookup bisects one argsort of the real
parts and scans the window in plain Python: O(log n) plus the modes near
the target's Re nu, and no numpy call, whose dispatch would dominate on
spectra of tens of modes.
"""

from __future__ import annotations

import cmath
import enum
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import (
    DefectiveMatrix,
    DegenerateEigenvalue,
    ResidualNeedsRegularized,
    UnpairedMode,
)
from .lattice import Boundary, ChainSpec, _hopping_block, vk
from .spectral import (
    TOL_BIORTH,
    TOL_ZERO,
    BiorthogonalSystem,
    OccupationSet,
    _half_filled_energies,
    _sublattice_gauge,
    biorthogonal_diagonalize,
    build_real_space,
    select_half_filling,
)


class Provenance(enum.Enum):
    REAL_SPACE = "real_space"
    K_SPACE = "k_space"


class Prescription(enum.Enum):
    PRINCIPAL = "principal"
    BRANCH_CUT = "branch_cut"
    ABSOLUTE_VALUE = "absolute_value"
    REGULARIZED = "regularized"


class ModeLabel(enum.Enum):
    REAL_IN_RANGE = "real_in_range"
    REAL_PAIR = "real_pair"
    EDGE_PAIR = "edge_pair"
    QUARTET = "quartet"
    RESIDUAL_PH_PAIR = "residual_ph_pair"
    UNPAIRED = "unpaired"


@dataclass(frozen=True)
class ToleranceSet:
    """Classification tolerances.

    ``tol_real`` and ``tol_pair`` sit one order above the eigensolver noise
    observed on ~2000-site correlation matrices. Self-paired modes come out
    of the real-gauge eigensolve at Re nu = 1/2 exactly, so ``tol_edge``
    needs no widening for disordered chains.
    """

    tol_real: float = 1e-8   # |Im nu| below this counts as real
    tol_edge: float = 1e-6   # |Re nu - 1/2| below this is edge-like
    tol_pair: float = 1e-8   # partner matching distance


DEFAULT_TOLERANCES = ToleranceSet()


@dataclass(frozen=True)
class CorrelationMatrix:
    """Two-point function restricted to the first ell_A cells."""

    matrix: np.ndarray
    subsystem_cells: int
    provenance: Provenance


@dataclass(frozen=True)
class ModeGroup:
    label: ModeLabel
    indices: tuple[int, ...]


@dataclass(frozen=True)
class EntanglementSpectrum:
    """Classified complex correlation eigenvalues."""

    eigenvalues: np.ndarray
    labels: tuple[ModeLabel, ...]
    groups: tuple[ModeGroup, ...]
    edge_pair_imags: tuple[float, ...]
    quartet_params: tuple[tuple[float, float, float, float, float, float], ...]
    tolerances: ToleranceSet

    @property
    def n_edge_pairs(self) -> int:
        return len(self.edge_pair_imags)

    @property
    def n_quartets(self) -> int:
        return len(self.quartet_params)

    @property
    def n_residual(self) -> int:
        return sum(1 for g in self.groups if g.label is ModeLabel.RESIDUAL_PH_PAIR)

    @property
    def n_unpaired(self) -> int:
        return sum(1 for g in self.groups if g.label is ModeLabel.UNPAIRED)


@dataclass(frozen=True)
class LedgerEntry:
    label: ModeLabel
    contribution: complex
    branch_shifts: int
    indices: tuple[int, ...]


@dataclass(frozen=True)
class ComplexEntropy:
    """Complex entropy value plus its per-group audit ledger.

    ``value`` is by construction the exact floating-point sum of the ledger
    contributions in ledger order.
    """

    value: complex
    ledger: tuple[LedgerEntry, ...]
    prescription: Prescription


@dataclass(frozen=True)
class EntanglementEnergies:
    """Entanglement energies eps_n = log((1 - nu_n)/nu_n), principal branch."""

    values: np.ndarray


def correlation_matrix(
    sys: BiorthogonalSystem, occ: OccupationSet, ell: int
) -> CorrelationMatrix:
    """Subsystem correlation matrix from an occupied biorthogonal system.

    Only the leading 2 ell rows of C = sum_n s_n conj(L_n) R_n^T are formed.
    """
    n_cells = sys.n // 2
    if not 1 <= ell <= n_cells:
        raise ValueError(f"subsystem of {ell} cells out of range 1..{n_cells}")
    n = 2 * ell
    C = (sys.left_vectors[:n].conj() * occ.weights) @ sys.right_vectors[:n].T
    return CorrelationMatrix(C, ell, Provenance.REAL_SPACE)


def _toeplitz_correlation(g: np.ndarray, ell: int, L: int) -> np.ndarray:
    """2 ell x 2 ell block from the 2 x 2 x L per-separation blocks g, in
    g's dtype."""
    n = np.arange(ell)
    idx = (n[:, None] - n[None, :]) % L
    C = np.empty((2 * ell, 2 * ell), dtype=g.dtype)
    for a in range(2):
        for b in range(2):
            C[a::2, b::2] = g[a, b, idx]
    return C


def correlation_k_space(spec: ChainSpec, ell: int) -> CorrelationMatrix:
    """Momentum-space fast path for clean periodic chains.

    Fourier transform of the per-k occupied band blocks; agrees with the
    real-space construction entrywise to ~1e-10.
    """
    spec.require_translation_invariant("correlation_k_space")
    if spec.boundary is not Boundary.PBC:
        raise ValueError("correlation_k_space requires periodic boundaries")
    if not 1 <= ell <= spec.cells:
        raise ValueError(f"subsystem of {ell} cells out of range 1..{spec.cells}")
    M, _ = _subsystem_correlation(spec, ell)
    return CorrelationMatrix(_ungauge(M), ell, Provenance.K_SPACE)


def _ungauge(M: np.ndarray) -> np.ndarray:
    """C = 1/2 + (i/2) S M S^-1, the inverse of M = -2i S^-1 (C - 1/2) S."""
    g = np.ones(len(M), dtype=complex)
    g[1::2] = 1j
    C = 0.5j * (g[:, None] * M * g.conj())
    C[np.diag_indices_from(C)] += 0.5
    return C


def _singular_mode_block(spec: ChainSpec, cells: int, tol_zero: float) -> np.ndarray:
    """Leading 2 cells x 2 cells block of M on a clean open chain.

    Each singular triple (s, a, b) of the hopping block V carries the 2 x 2
    problem [[i u, s], [s, -i u]] on (a, 0), (0, b). Its block is the
    per-momentum block of the k-space route with v_k -> s, real in the
    gauge: M = [[-u, -s], [s, u]] / e with the lower mode filled,
    e = sqrt(s^2 - u^2), and 0 for a half-filled pair on the imaginary axis
    (s < u); :func:`_half_filled_energies` gives e or 0.
    """
    u = spec.u_eff
    a, sv, bt = np.linalg.svd(_hopping_block(spec))
    e = _half_filled_energies(sv, u, tol_zero)
    inv_e = np.divide(1.0, e, out=np.zeros_like(e), where=e > 0)
    a, b = a[:cells], bt[:, :cells].T  # rows of the leading cells
    M = np.empty((2 * cells, 2 * cells))
    M[0::2, 0::2] = (a * (-u * inv_e)) @ a.T
    M[1::2, 0::2] = (b * (sv * inv_e)) @ a.T
    M[0::2, 1::2] = -M[1::2, 0::2].T
    M[1::2, 1::2] = (b * (u * inv_e)) @ b.T
    return M


def _subsystem_correlation(
    spec: ChainSpec, cells: int, tol_zero: float = TOL_ZERO
) -> tuple[np.ndarray, str]:
    """Leading 2 cells x 2 cells block of M = -2i S^-1 (C - 1/2) S, and the
    route that formed it.

    M is real for every state of the family, nu = 1/2 + (i/2) eig(M). Only
    the leading rows of C are formed, never the 2L x 2L product. Routes:

    ``"k_space"``
        clean periodic chains: inverse FFT of the per-momentum blocks
        M_k = [[-u, -conj(v_k)], [v_k, u]] / e_k, as Toeplitz blocks;
    ``"singular_mode"``
        clean open chains: per singular triple of the hopping block
        (:func:`_singular_mode_block`, the same block with v_k -> s);
    ``"dense"``
        disordered chains: biorthogonal diagonalization of the 2L x 2L
        Hamiltonian, in the real sublattice gauge.

    Each route fills the spectrum with the kernel of its ground-state
    energy: both clean routes take e_k, or 0 for a half-filled pair, from
    :func:`_half_filled_energies`. Every route checks the distance from an
    exceptional point first, then decides the half filling in
    :func:`half_filling_weights` at ``tol_zero``.
    """
    if spec.is_translation_invariant and spec.boundary is Boundary.PBC:
        L, u = spec.cells, spec.u_eff
        v = np.asarray(vk(spec, 2.0 * np.pi * np.arange(L) / L))
        e = _half_filled_energies(np.abs(v), u, tol_zero)
        inv_e = np.divide(1.0, e, out=np.zeros(L), where=e > 0)
        uk = np.full(L, u)
        m = np.array([[-uk, -np.conj(v)], [v, uk]]) * inv_e  # M_k, k last
        g = _gauge_real(np.fft.ifft(m))
        return _toeplitz_correlation(g, cells, L), "k_space"
    if spec.is_translation_invariant:
        return _singular_mode_block(spec, cells, tol_zero), "singular_mode"
    sys = biorthogonal_diagonalize(build_real_space(spec))
    C = correlation_matrix(sys, select_half_filling(sys, tol_zero), cells).matrix
    C[np.diag_indices_from(C)] -= 0.5
    return 2.0 * _gauge_real(_sublattice_gauge(C)), "dense"


# ---------------------------------------------------------------------------
# Spectrum classification
# ---------------------------------------------------------------------------


class _NoMatch(Exception):
    """A required partner is missing, or its match is ambiguous."""


def classify_spectrum(
    nus: np.ndarray, tolerances: ToleranceSet = DEFAULT_TOLERANCES
) -> EntanglementSpectrum:
    """Partition complex correlation eigenvalues into symmetry multiplets.

    Real eigenvalues inside [0, 1] (to tol_real) stand alone; real
    eigenvalues outside pair as {nu, 1-nu}. Complex eigenvalues pair with
    their conjugate: at Re nu ~ 1/2 the pair is an edge pair, otherwise the
    particle-hole partners 1-nu and 1-nu* complete a quartet. A complex
    eigenvalue without a conjugate partner is a residual particle-hole pair
    (with its partner 1-nu*, or alone when self-paired at Re nu ~ 1/2).
    Anything left over is UNPAIRED.
    """
    nus = np.asarray(nus, dtype=complex)
    tol = tolerances
    n = len(nus)
    vals = nus.tolist()
    is_real = (np.abs(nus.imag) < tol.tol_real).tolist()
    by_re = np.argsort(nus.real).tolist()  # NaN real parts last
    keys = [vals[j].real for j in by_re]
    labels: list[ModeLabel | None] = [None] * n
    groups: list[ModeGroup] = []
    edge_imags: list[float] = []
    quartets: list[tuple[float, float, float, float, float, float]] = []
    free = [True] * n
    group: list[int] = []  # the visited mode, then the partners it holds

    def take(label: ModeLabel, idx: tuple[int, ...]):
        for i in idx:
            free[i] = False
            labels[i] = label
        groups.append(ModeGroup(label, idx))

    def partner(target: complex, required: bool = True) -> int | None:
        """Append the partner of target to group and return it, or None when
        there is none; raise _NoMatch if it is ambiguous, or none and required.

        The window reaches 2 tol_pair either side so that rounding at its
        ends drops no candidate; the NaN keys sorted last can only widen it.
        """
        real = is_real[group[0]]
        lo = bisect_left(keys, target.real - 2.0 * tol.tol_pair)
        hi = bisect_right(keys, target.real + 2.0 * tol.tol_pair, lo)
        near = [
            (d, j)
            for j in by_re[lo:hi]
            if free[j] and is_real[j] == real and j not in group
            and (d := abs(vals[j] - target)) < tol.tol_pair
        ]
        if not near:
            if required:
                raise _NoMatch
            return None
        best = min(near)[1]
        if any(abs(vals[j] - vals[best]) > tol.tol_pair for _, j in near):
            raise _NoMatch
        group.append(best)
        return best

    for i in np.lexsort((np.arange(n), nus.imag, nus.real)).tolist():
        if not free[i] or not is_real[i]:
            continue
        x = vals[i].real
        if -tol.tol_real <= x <= 1.0 + tol.tol_real:
            take(ModeLabel.REAL_IN_RANGE, (i,))
            continue
        group = [i]
        try:
            take(ModeLabel.REAL_PAIR, (i, partner(1.0 - x)))
        except _NoMatch:
            take(ModeLabel.UNPAIRED, (i,))

    # complex modes, largest |Im| first for deterministic grouping
    complex_order = sorted(
        (i for i in range(n) if not is_real[i]),
        key=lambda i: (-abs(vals[i].imag), vals[i].real, vals[i].imag, i),
    )
    for i in complex_order:
        if not free[i]:
            continue
        nu = vals[i]
        group = [i]
        try:
            jc = partner(nu.conjugate(), required=False)
            if abs(nu.real - 0.5) < tol.tol_edge:
                if jc is None:
                    # self-paired under nu -> 1 - nu*: conjugation partner lost
                    take(ModeLabel.RESIDUAL_PH_PAIR, (i,))
                else:
                    take(ModeLabel.EDGE_PAIR, (i, jc))
                    edge_imags.append(abs(nu.imag))
            elif jc is None:
                partner(1.0 - nu.conjugate())
                take(ModeLabel.RESIDUAL_PH_PAIR, tuple(group))
            else:
                rep = nu if nu.imag > 0 else nu.conjugate()
                partner(1.0 - rep.conjugate())
                partner(1.0 - rep)
                take(ModeLabel.QUARTET, tuple(group))
                quartets.append(_quartet_params(rep))
        except _NoMatch:
            take(ModeLabel.UNPAIRED, (i,))

    return EntanglementSpectrum(
        eigenvalues=nus,
        labels=tuple(labels),  # type: ignore[arg-type]
        groups=tuple(groups),
        edge_pair_imags=tuple(edge_imags),
        quartet_params=tuple(quartets),
        tolerances=tolerances,
    )


def _quartet_params(rep: complex) -> tuple[float, float, float, float, float, float]:
    R, I = rep.real, rep.imag
    r = abs(rep)
    rho = abs(1.0 - rep)
    phi = cmath.phase(rep)
    varphi = cmath.phase(1.0 - rep.conjugate())
    return (R, I, r, rho, phi, varphi)


# ---------------------------------------------------------------------------
# Entropy prescriptions
# ---------------------------------------------------------------------------


def _plogp(z: complex) -> complex:
    """z log z on the principal branch, continuous limit 0 at z = 0."""
    if z == 0:
        return 0.0 + 0.0j
    return z * cmath.log(z)


def _principal_term(nu: complex) -> complex:
    return -(_plogp(nu) + _plogp(1.0 - nu))


def _abs_term(nu: complex) -> complex:
    t = 0.0 + 0.0j
    if nu != 0:
        t -= nu * math.log(abs(nu))
    if nu != 1:
        t -= (1.0 - nu) * math.log(abs(1.0 - nu))
    return t


def _edge_pair_branch(I: float) -> complex:
    # (4 arctan(2I) - 2 pi) I written as -4 I arctan(1/(2I)) to avoid the
    # pi/2 cancellation at large I.
    real = -2.0 * math.log(math.hypot(0.5, I)) - 4.0 * I * math.atan(1.0 / (2.0 * I))
    return complex(real, -math.pi)


def _quartet_branch(p: tuple[float, float, float, float, float, float]) -> complex:
    R, I, r, rho, phi, varphi = p
    return complex(
        -4.0 * R * math.log(r)
        - 4.0 * (1.0 - R) * math.log(rho)
        + 4.0 * I * (phi + varphi - math.pi),
        0.0,
    )


def _real_in_range_branch(x: float) -> complex:
    xc = min(max(x, 0.0), 1.0)
    return complex(-(xlogy(xc, xc) + xlogy(1.0 - xc, 1.0 - xc)), 0.0)


def _real_pair_branch(x: float) -> complex:
    # opposite +-i pi branches inside the pair cancel; magnitude logs remain
    val = 0.0
    if x != 0.0:
        val -= 2.0 * x * math.log(abs(x))
    if x != 1.0:
        val -= 2.0 * (1.0 - x) * math.log(abs(1.0 - x))
    return complex(val, 0.0)


_BRANCH_SHIFTS = {
    ModeLabel.REAL_IN_RANGE: 0,
    ModeLabel.REAL_PAIR: 1,
    ModeLabel.EDGE_PAIR: 1,
    ModeLabel.QUARTET: 2,
}


def entropy(
    spectrum: EntanglementSpectrum, prescription: Prescription
) -> ComplexEntropy:
    """Complex entanglement entropy of a classified spectrum.

    The branch-cut prescription refuses spectra with unpaired modes and
    directs spectra that carry only the particle-hole pairing to the
    regularized prescription.
    """
    if prescription is Prescription.REGULARIZED:
        return _regularized(spectrum)

    nus = spectrum.eigenvalues
    entries: list[LedgerEntry] = []
    if prescription is Prescription.BRANCH_CUT:
        if spectrum.n_unpaired:
            raise UnpairedMode(
                f"{spectrum.n_unpaired} unpaired modes; branch-cut entropy undefined"
            )
        if spectrum.n_residual:
            raise ResidualNeedsRegularized(
                "spectrum carries only the particle-hole pairing; "
                "use Prescription.REGULARIZED"
            )
    edge_it = iter(spectrum.edge_pair_imags)
    quartet_it = iter(spectrum.quartet_params)
    for g in spectrum.groups:
        if prescription is Prescription.PRINCIPAL:
            val = sum((_principal_term(nus[i]) for i in g.indices), 0.0 + 0.0j)
            shifts = 0
        elif prescription is Prescription.ABSOLUTE_VALUE:
            val = sum((_abs_term(nus[i]) for i in g.indices), 0.0 + 0.0j)
            shifts = 0
        else:  # BRANCH_CUT
            shifts = _BRANCH_SHIFTS[g.label]
            if g.label is ModeLabel.REAL_IN_RANGE:
                val = _real_in_range_branch(nus[g.indices[0]].real)
            elif g.label is ModeLabel.REAL_PAIR:
                val = _real_pair_branch(nus[g.indices[0]].real)
            elif g.label is ModeLabel.EDGE_PAIR:
                val = _edge_pair_branch(next(edge_it))
            else:
                val = _quartet_branch(next(quartet_it))
        entries.append(LedgerEntry(g.label, complex(val), shifts, g.indices))
    total = sum((e.contribution for e in entries), 0.0 + 0.0j)
    return ComplexEntropy(total, tuple(entries), prescription)


def _regularized_mode(nu: complex, tol: ToleranceSet) -> complex:
    """Per-mode share of BRANCH_CUT(spectrum + conjugates)/2.

    A real mode and its conjugate form a real pair, so the mode owns half
    of the real-pair formula (magnitude logs outside [0, 1], where the two
    +-i pi branches of the doubled pair cancel). A self-paired
    complex mode (Re nu = 1/2 under the particle-hole closure) owns half of
    the edge-pair formula; any other complex mode owns a quarter of the
    quartet completed by its structural partner 1 - nu*.
    """
    if abs(nu.imag) < tol.tol_real:
        return _real_pair_branch(nu.real) / 2.0
    if abs(nu.real - 0.5) < tol.tol_edge:
        return _edge_pair_branch(abs(nu.imag)) / 2.0
    rep = nu if nu.imag > 0 else nu.conjugate()
    return _quartet_branch(_quartet_params(rep)) / 4.0


def _regularized(spectrum: EntanglementSpectrum) -> ComplexEntropy:
    tol = spectrum.tolerances
    entries = tuple(
        LedgerEntry(
            spectrum.labels[i],
            complex(_regularized_mode(complex(nu), tol)),
            1 if abs(nu.imag) >= tol.tol_real else 0,
            (i,),
        )
        for i, nu in enumerate(spectrum.eigenvalues)
    )
    total = sum((e.contribution for e in entries), 0.0 + 0.0j)
    return ComplexEntropy(total, entries, Prescription.REGULARIZED)


def entanglement_energies(spectrum: EntanglementSpectrum) -> EntanglementEnergies:
    """eps_n = log((1 - nu_n)/nu_n) per mode on the principal branch."""
    nus = spectrum.eigenvalues
    if np.any(nus == 0) or np.any(nus == 1):
        raise DegenerateEigenvalue("entanglement energy diverges at nu in {0, 1}")
    return EntanglementEnergies(np.log((1.0 - nus) / nus))


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EntropyProfile:
    """Entropy against subsystem size, with per-size mode counts."""

    ells: np.ndarray
    entropies: tuple[ComplexEntropy, ...]
    n_edge_pairs: np.ndarray
    n_quartets: np.ndarray
    n_residual: np.ndarray
    prescription: Prescription

    @property
    def values(self) -> np.ndarray:
        return np.array([s.value for s in self.entropies])


def _gauge_real(M: np.ndarray) -> np.ndarray:
    """Real part of a gauge-transformed correlation matrix.

    The imaginary part vanishes up to rounding for every state of the
    family; a residue above TOL_BIORTH (relative to max |M|, at least 1)
    means the biorthogonal basis it was built from is unreliable. The floor
    matters where M vanishes up to rounding: C = 1/2 when every mode is half
    filled, as in the fully PT-broken phase.
    """
    if not np.iscomplexobj(M):
        return M
    residue = float(np.max(np.abs(M.imag)))
    scale = max(float(np.max(np.abs(M))), 1.0)
    if residue > TOL_BIORTH * scale:
        raise DefectiveMatrix(
            "correlation matrix is not real in the sublattice gauge "
            f"(relative residue {residue / scale:.1e}); the chain sits too "
            "close to an exceptional point, increase the detuning"
        )
    return M.real


def entropy_profile(
    spec: ChainSpec,
    ells,
    prescription: Prescription = Prescription.BRANCH_CUT,
    tolerances: ToleranceSet = DEFAULT_TOLERANCES,
    tol_zero: float = TOL_ZERO,
) -> EntropyProfile:
    """Entropy for a list of leading-block sizes on one chain.

    The correlation block is formed once, at the largest size, by
    :func:`_subsystem_correlation` (k-space for clean periodic chains,
    singular modes for clean open chains, dense for disordered chains) and
    sliced per size.

    The subsystem eigensolve is real: the blocks are those of
    M = -2i S^-1 (C - 1/2) S in the sublattice gauge, and
    nu = 1/2 + (i/2) eig(M). A real eigenvalue of M is a self-paired mode
    at Re nu = 1/2 exactly; the others come in conjugate pairs, which are
    exact particle-hole partners nu, 1 - nu^*.
    """
    ells = np.asarray(sorted(set(int(e) for e in ells)))
    if not len(ells) or np.any(ells < 1) or np.any(ells > spec.cells):
        raise ValueError(f"subsystem sizes must be a non-empty list in 1..{spec.cells}")
    M, _ = _subsystem_correlation(spec, int(ells[-1]), tol_zero)
    blocks = (M[: 2 * int(e), : 2 * int(e)] for e in ells)
    results = []
    counts = np.zeros((3, len(ells)), dtype=int)
    for col, block in enumerate(blocks):
        nus = 0.5 + 0.5j * np.linalg.eigvals(block)
        spect = classify_spectrum(nus, tolerances)
        results.append(entropy(spect, prescription))
        counts[:, col] = (spect.n_edge_pairs, spect.n_quartets, spect.n_residual)
    return EntropyProfile(
        ells=ells,
        entropies=tuple(results),
        n_edge_pairs=counts[0],
        n_quartets=counts[1],
        n_residual=counts[2],
        prescription=prescription,
    )
