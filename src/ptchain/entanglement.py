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
tolerances; matches that remain ambiguous at tolerance are demoted to
``UNPAIRED`` rather than guessed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .errors import (
    DefectiveMatrix,
    DegenerateEigenvalue,
    ResidualNeedsRegularized,
    UnpairedMode,
)
from .lattice import Boundary, ChainSpec, vk
from .spectral import (
    TOL_BIORTH,
    BiorthogonalSystem,
    OccupationSet,
    _sublattice_gauge,
    biorthogonal_diagonalize,
    build_real_space,
    occupied_correlation,
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
    """Subsystem correlation matrix from an occupied biorthogonal system."""
    n_cells = sys.n // 2
    if not 1 <= ell <= n_cells:
        raise ValueError(f"subsystem of {ell} cells out of range 1..{n_cells}")
    C = occupied_correlation(sys, occ)[: 2 * ell, : 2 * ell]
    return CorrelationMatrix(C, ell, Provenance.REAL_SPACE)


def _band_projectors(spec: ChainSpec) -> np.ndarray:
    """Per-momentum 2x2 correlation blocks of the half-filled ground state.

    The lower band at momentum k has right vector (v_k, -(iu + e)) and left
    vector (v_k, iu - e) with e = sqrt(|v_k|^2 - u^2); normalized, the
    occupied block is conj(L) R^T / <L|R>. PT-broken momenta carry the
    half/half occupation of their +-i|e| pair, which sums to the identity/2.
    """
    L = spec.cells
    k = 2.0 * np.pi * np.arange(L) / L
    v = np.asarray(vk(spec, k))
    u = spec.u_eff
    eps2 = np.abs(v) ** 2 - u * u
    if np.any(eps2 == 0.0):
        raise DefectiveMatrix(
            "momentum grid hits an exceptional point (|v_k| = u_eff); "
            "increase the detuning"
        )
    C = np.empty((L, 2, 2), dtype=complex)
    e = np.sqrt(eps2.astype(complex))
    d = 2.0 * e * (e + 1j * u)
    C[:, 0, 0] = np.abs(v) ** 2 / d
    C[:, 0, 1] = -np.conj(v) / (2.0 * e)
    C[:, 1, 0] = -v / (2.0 * e)
    C[:, 1, 1] = (e + 1j * u) / (2.0 * e)
    broken = eps2 < 0
    if np.any(broken):
        C[broken] = 0.5 * np.eye(2)
    return C


def _toeplitz_correlation(g: np.ndarray, ell: int, L: int) -> np.ndarray:
    """2 ell x 2 ell block from per-separation 2x2 blocks, in g's dtype."""
    n = np.arange(ell)
    idx = (n[:, None] - n[None, :]) % L
    C = np.empty((2 * ell, 2 * ell), dtype=g.dtype)
    for a in range(2):
        for b in range(2):
            C[a::2, b::2] = g[idx, a, b]
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
    g = np.fft.ifft(_band_projectors(spec), axis=0)
    return CorrelationMatrix(
        _toeplitz_correlation(g, ell, spec.cells), ell, Provenance.K_SPACE
    )


# ---------------------------------------------------------------------------
# Spectrum classification
# ---------------------------------------------------------------------------


class _Ambiguous(Exception):
    pass


def _find_partner(
    nus: np.ndarray,
    free: np.ndarray,
    target: complex,
    tol: float,
    exclude: tuple[int, ...] = (),
) -> int | None:
    """Index of the unused eigenvalue nearest to target within tol.

    Raises _Ambiguous when two candidates within tol differ from each other
    by more than tol (a genuinely ambiguous match); exact near-duplicates
    resolve to the nearest (then lowest index).
    """
    cand = np.flatnonzero(free)
    cand = cand[~np.isin(cand, exclude)]
    if len(cand) == 0:
        return None
    dist = np.abs(nus[cand] - target)
    inside = dist < tol
    if not np.any(inside):
        return None
    cand, dist = cand[inside], dist[inside]
    best = int(cand[np.argmin(dist)])
    others = cand[np.abs(nus[cand] - nus[best]) > tol]
    if len(others):
        raise _Ambiguous()
    return best


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
    labels: list[ModeLabel | None] = [None] * n
    groups: list[ModeGroup] = []
    edge_imags: list[float] = []
    quartets: list[tuple[float, float, float, float, float, float]] = []
    free = np.ones(n, dtype=bool)

    def take(label: ModeLabel, idx: tuple[int, ...]):
        for i in idx:
            free[i] = False
            labels[i] = label
        groups.append(ModeGroup(label, idx))

    is_real = np.abs(nus.imag) < tol.tol_real
    order = np.lexsort((np.arange(n), nus.imag, nus.real))

    for i in order:
        if not free[i] or not is_real[i]:
            continue
        x = nus[i].real
        if -tol.tol_real <= x <= 1.0 + tol.tol_real:
            take(ModeLabel.REAL_IN_RANGE, (i,))
            continue
        try:
            j = _find_partner(nus, free & is_real, 1.0 - x, tol.tol_pair, (i,))
        except _Ambiguous:
            j = None
        if j is None:
            take(ModeLabel.UNPAIRED, (i,))
        else:
            take(ModeLabel.REAL_PAIR, (i, j))

    # complex modes, largest |Im| first for deterministic grouping
    complex_order = sorted(
        (i for i in range(n) if not is_real[i]),
        key=lambda i: (-abs(nus[i].imag), nus[i].real, nus[i].imag, i),
    )
    for i in complex_order:
        if not free[i]:
            continue
        nu = nus[i]
        try:
            jc = _find_partner(nus, free & ~is_real, np.conj(nu), tol.tol_pair, (i,))
        except _Ambiguous:
            take(ModeLabel.UNPAIRED, (i,))
            continue
        if abs(nu.real - 0.5) < tol.tol_edge:
            if jc is not None:
                take(ModeLabel.EDGE_PAIR, (i, jc))
                edge_imags.append(abs(nu.imag))
            else:
                # self-paired under nu -> 1 - nu*: conjugation partner lost
                take(ModeLabel.RESIDUAL_PH_PAIR, (i,))
            continue
        rep = nu if nu.imag > 0 else np.conj(nu)
        if jc is not None:
            try:
                k1 = _find_partner(
                    nus, free & ~is_real, 1.0 - np.conj(rep), tol.tol_pair, (i, jc)
                )
                k2 = (
                    None
                    if k1 is None
                    else _find_partner(
                        nus, free & ~is_real, 1.0 - rep, tol.tol_pair, (i, jc, k1)
                    )
                )
            except _Ambiguous:
                take(ModeLabel.UNPAIRED, (i,))
                continue
            if k1 is None or k2 is None:
                take(ModeLabel.UNPAIRED, (i,))
                continue
            take(ModeLabel.QUARTET, (i, jc, k1, k2))
            quartets.append(_quartet_params(rep))
        else:
            try:
                jp = _find_partner(
                    nus, free & ~is_real, 1.0 - np.conj(nu), tol.tol_pair, (i,)
                )
            except _Ambiguous:
                take(ModeLabel.UNPAIRED, (i,))
                continue
            if jp is None:
                take(ModeLabel.UNPAIRED, (i,))
            else:
                take(ModeLabel.RESIDUAL_PH_PAIR, (i, jp))

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
    phi = float(np.angle(rep))
    varphi = float(np.angle(1.0 - np.conj(rep)))
    return (R, I, r, rho, phi, varphi)


# ---------------------------------------------------------------------------
# Entropy prescriptions
# ---------------------------------------------------------------------------


def _plogp(z: complex) -> complex:
    """z log z on the principal branch, continuous limit 0 at z = 0."""
    if z == 0:
        return 0.0 + 0.0j
    return z * np.log(complex(z))


def _principal_term(nu: complex) -> complex:
    return -(_plogp(nu) + _plogp(1.0 - nu))


def _abs_term(nu: complex) -> complex:
    t = 0.0 + 0.0j
    if nu != 0:
        t -= nu * np.log(abs(nu))
    if nu != 1:
        t -= (1.0 - nu) * np.log(abs(1.0 - nu))
    return t


def _edge_pair_branch(I: float) -> complex:
    # (4 arctan(2I) - 2 pi) I written as -4 I arctan(1/(2I)) to avoid the
    # pi/2 cancellation at large I.
    real = -2.0 * np.log(np.hypot(0.5, I)) - 4.0 * I * np.arctan(1.0 / (2.0 * I))
    return complex(real, -np.pi)


def _quartet_branch(p: tuple[float, float, float, float, float, float]) -> complex:
    R, I, r, rho, phi, varphi = p
    return complex(
        -4.0 * R * np.log(r)
        - 4.0 * (1.0 - R) * np.log(rho)
        + 4.0 * I * (phi + varphi - np.pi),
        0.0,
    )


def _real_in_range_branch(x: float) -> complex:
    xc = min(max(x, 0.0), 1.0)
    return complex(-(xlogy(xc, xc) + xlogy(1.0 - xc, 1.0 - xc)), 0.0)


def _real_pair_branch(x: float) -> complex:
    # opposite +-i pi branches inside the pair cancel; magnitude logs remain
    val = 0.0
    if x != 0.0:
        val -= 2.0 * x * np.log(abs(x))
    if x != 1.0:
        val -= 2.0 * (1.0 - x) * np.log(abs(1.0 - x))
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
    rep = nu if nu.imag > 0 else np.conj(nu)
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
    tol_zero: float = 1e-8,
) -> EntropyProfile:
    """Entropy for a list of leading-block sizes on one chain.

    Clean periodic chains go through the momentum-space correlation blocks
    (built once and sliced per size); open or disordered chains are
    diagonalized densely once.

    Either way the subsystem eigensolve is real: the blocks are those of
    M = -2i S^-1 (C - 1/2) S in the sublattice gauge, and
    nu = 1/2 + (i/2) eig(M). A real eigenvalue of M is a self-paired mode
    at Re nu = 1/2 exactly; the others come in conjugate pairs, which are
    exact particle-hole partners nu, 1 - nu^*.
    """
    ells = np.asarray(sorted(set(int(e) for e in ells)))
    if np.any(ells < 1) or np.any(ells > spec.cells):
        raise ValueError("subsystem sizes out of range")
    if spec.is_translation_invariant and spec.boundary is Boundary.PBC:
        # gauge each momentum block before the transform, so the Toeplitz
        # blocks are built directly in float64
        m = _sublattice_gauge(_band_projectors(spec) - 0.5 * np.eye(2))
        g = 2.0 * _gauge_real(np.fft.ifft(m, axis=0))
        blocks = (_toeplitz_correlation(g, int(e), spec.cells) for e in ells)
    else:
        sys = biorthogonal_diagonalize(build_real_space(spec))
        occ = select_half_filling(sys, tol_zero)
        C = occupied_correlation(sys, occ)
        C[np.diag_indices_from(C)] -= 0.5
        M = 2.0 * _gauge_real(_sublattice_gauge(C))
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
