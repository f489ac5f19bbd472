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
    -4 R ln r - 4 (1-R) ln rho + 4 I (phi + varphi - pi). A real mode x
    contributes its magnitude logs -x ln|x| - (1-x) ln|1-x|, in [0, 1] and
    in a real pair outside it alike, where the pair's +-i pi cancel.
    Requires the spectrum to carry both the conjugation and particle-hole
    pairings.
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
    mode by mode, and a mode's share follows its group: a real mode takes
    its magnitude logs, a mode of an edge pair or a self-paired residual
    mode half an edge-pair contribution, and a mode of a quartet or of a
    residual pair {nu, 1 - nu*} a quarter of the quartet it completes. Only
    an unpaired mode, which has no group to go by, is placed by its own
    position. BRANCH_CUT is this sum plus the refusal of unpaired modes and
    residual pairs. The subsystem eigensolve runs on a real matrix (see
    :func:`entropy_profile`), where the particle-hole closure is exact: a
    self-paired mode is a real eigenvalue and sits at Re nu = 1/2 to the
    last bit, so the default ``tol_edge`` serves disordered chains too. On
    clean periodic chains a reflection halves that eigensolve to one real
    ell x ell solve and keeps the closure exact (:func:`_subsystem_eigvals`).

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

Classification and entropy run in serial Python, once per size of a
profile, so their cost per mode is the stage's cost. Most modes are real
ones in [0, 1], singletons that the real pass labels inline and
:func:`entropy` takes the magnitude logs of inline; labels are matched by
identity, never hashed (an ``Enum``'s hash is a Python call). Such a mode
costs one :class:`ModeGroup` and one :class:`LedgerEntry`, both tuples,
and about 1.2 us in all on a shared 2-vCPU host.
"""

from __future__ import annotations

import cmath
import enum
import math
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DegenerateEigenvalue,
    ResidualNeedsRegularized,
    UnpairedMode,
)
from .lattice import (Boundary, ChainSpec, _gauge_matrix, _integers, _momenta,
                      _open_bidiagonal, _to_sites, vk)
from .spectral import (
    TOL_ZERO,
    BiorthogonalSystem,
    OccupationSet,
    _bidiagonal_svd,
    _geev,
    _gemm,
    _half_filled_energies,
    _numpy_lapack,
    _one_blas_thread,
    _real_gauge_system,
    _scipy_lapack,
    _usable_cpus,
    half_filling_weights,
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


#: ``_record(ModeGroup, (label, indices))`` builds a record as the
#: NamedTuple's own ``_make`` does, without the Python frame of its
#: generated ``__new__``: the classifier and :func:`entropy` build one per
#: group, most of them real-in-range singletons.
_record = tuple.__new__


class ModeGroup(NamedTuple):
    """One multiplet of a classified spectrum: its label and the indices of
    its modes, the visited mode first."""

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
        return self._label_counts[0]

    @property
    def n_unpaired(self) -> int:
        return self._label_counts[1]

    @cached_property
    def _label_counts(self) -> tuple[int, int]:
        """(residual, unpaired) groups, counted once per spectrum by
        identity: a label's ``Enum.__hash__`` is a Python call."""
        labels = [g.label for g in self.groups]
        return labels.count(ModeLabel.RESIDUAL_PH_PAIR), labels.count(ModeLabel.UNPAIRED)


class LedgerEntry(NamedTuple):
    """One group's contribution: the sum of one term per mode of the group.

    ``branch_shifts`` counts the logs of the group that BRANCH_CUT and
    REGULARIZED move off the principal branch, by label: 1 for a real pair
    or an edge pair, 2 for a quartet, 0 for every other group and under
    PRINCIPAL and ABSOLUTE_VALUE.
    """

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
    ell = _subsystem_cells(ell, sys.n // 2)
    n = 2 * ell
    C = _gemm(sys.left_vectors[:n].conj() * occ.weights, sys.right_vectors[:n].T)
    return CorrelationMatrix(C, ell, Provenance.REAL_SPACE)


def _toeplitz_blocks(g: np.ndarray, ell: int) -> np.ndarray:
    """The ell x ell Toeplitz blocks T[a, b][i, j] = g[a, b, (i - j) mod L]
    of the 2 x 2 x L per-separation blocks g, as one strided view, shape
    (2, 2, ell, ell), over g gathered at the separations -(ell-1)..ell-1."""
    r = np.arange(1 - ell, ell) % g.shape[-1]
    return sliding_window_view(g[..., r], ell, axis=-1)[..., ::-1]


def _toeplitz_correlation(g: np.ndarray, ell: int) -> np.ndarray:
    """2 ell x 2 ell block from the 2 x 2 x L per-separation blocks g, in
    g's dtype, sublattices interleaved."""
    t = _toeplitz_blocks(g, ell)
    return t.transpose(2, 0, 3, 1).reshape(2 * ell, 2 * ell)


def _leading_block(corr: np.ndarray, route: str, cells: int) -> np.ndarray:
    """Leading 2 cells x 2 cells block of M from ``corr``, what
    :func:`_subsystem_correlation` returned on ``route``."""
    if route == "k_space":
        return _toeplitz_correlation(corr, cells)
    return corr[: 2 * cells, : 2 * cells]


def _correlation_diagonal(
    spec: ChainSpec, tol_zero: float = TOL_ZERO
) -> tuple[np.ndarray, str]:
    """Diagonal of the whole chain's M and the route of
    :func:`_subsystem_correlation`, with no 2L x 2L block formed on the
    clean routes: g[a, a, 0] in every cell on ``k_space``, sums over the
    singular triples on ``singular_mode`` (:func:`_singular_mode_diagonal`).
    """
    if spec.is_translation_invariant and spec.boundary is Boundary.OBC:
        return _singular_mode_diagonal(spec, tol_zero), "singular_mode"
    corr, route = _subsystem_correlation(spec, spec.cells, tol_zero)
    if route == "k_space":
        return np.tile(np.diagonal(corr[..., 0]), spec.cells), route
    return np.diagonal(corr), route


def _correlation_block(
    spec: ChainSpec, cells: int, tol_zero: float = TOL_ZERO
) -> tuple[np.ndarray, str]:
    """Leading 2 cells x 2 cells block of M and its route, for callers that
    need the block itself (:func:`_subsystem_correlation`, then
    :func:`_leading_block`)."""
    corr, route = _subsystem_correlation(spec, cells, tol_zero)
    return _leading_block(corr, route, cells), route


def correlation_k_space(spec: ChainSpec, ell: int) -> CorrelationMatrix:
    """Momentum-space fast path for clean periodic chains, at rounding level
    down to detuning 1e-12; the dense route is the one whose error grows, as
    eps ||A|| / kappa^2 (README, "Numerical tolerances")."""
    spec.require_translation_invariant("correlation_k_space")
    if spec.boundary is not Boundary.PBC:
        raise ValueError("correlation_k_space requires periodic boundaries")
    ell = _subsystem_cells(ell, spec.cells)
    M, _ = _correlation_block(spec, ell)
    return CorrelationMatrix(_ungauge(M), ell, Provenance.K_SPACE)


def _ungauge(M: np.ndarray) -> np.ndarray:
    """C = 1/2 + (i/2) S M S^-1, the inverse of M = -2i S^-1 (C - 1/2) S."""
    s = _to_sites(np.ones(len(M), dtype=complex))
    C = 0.5j * (s[:, None] * M * s.conj())
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

    V is the n x n upper-bidiagonal block B (``lattice._open_bidiagonal``,
    n = L - alpha + 1) in its rows 0..n-1 and columns alpha-1..L-1, so
    B = Q diag(s) P^T (:func:`spectral._bidiagonal_svd`) gives V's triples:
    a is a column of Q on V's first n rows, b a column of P shifted down
    by alpha - 1, both zero on V's other rows, which may lie among the
    leading ``cells``. V's alpha - 1 zero singular values enter the
    filling, as in the ground-state energy, and then drop out: at u > 0
    each is a half-filled pair, at u = 0 the filling refuses them. The
    solve and the products run on one numpy BLAS thread, so the block
    does not depend on the caller's thread count.
    """
    u, shift = spec.u_eff, spec.alpha - 1
    q, sv, pt, inv_e = _singular_triples(spec, tol_zero)
    n = len(sv)
    # rows of the leading cells, in the layouts of np.linalg.svd's U rows
    # and Vt columns, which the products' rounding follows
    a, b = np.zeros((cells, n)), np.zeros((cells, n), order="F")
    a[:n] = q[:cells]
    b[shift:] = pt[:, : max(cells - shift, 0)].T
    M = np.empty((2 * cells, 2 * cells))
    with _one_blas_thread(_numpy_lapack()):
        M[0::2, 0::2] = (a * (-u * inv_e)) @ a.T
        M[1::2, 0::2] = (b * (sv * inv_e)) @ a.T
        M[1::2, 1::2] = (b * (u * inv_e)) @ b.T
    M[0::2, 1::2] = -M[1::2, 0::2].T
    return M


def _singular_triples(spec: ChainSpec, tol_zero: float):
    """(Q, s, P^T, 1/e) of a clean open chain: B = Q diag(s) P^T of its
    bidiagonal block (:func:`spectral._bidiagonal_svd`) and 1/e per triple,
    0 for a half-filled pair (:func:`_half_filled_energies`, over V's
    alpha - 1 zero singular values too)."""
    q, sv, pt = _bidiagonal_svd(*_open_bidiagonal(spec), vectors=True)
    a = np.concatenate([sv, np.zeros(spec.alpha - 1)])
    e = _half_filled_energies(a, spec.u_eff, tol_zero)[: len(sv)]
    return q, sv, pt, np.divide(1.0, e, out=np.zeros_like(e), where=e > 0)


def _singular_mode_diagonal(spec: ChainSpec, tol_zero: float) -> np.ndarray:
    """Diagonal of the whole block of :func:`_singular_mode_block`, with no
    block formed: sum_n a_in^2 (-u / e_n) on A and sum_n b_in^2 (u / e_n)
    on B, where a is Q on the first n cells and b is P on the cells from
    alpha - 1 on. ``einsum`` sums each row in one pass, with no n x n
    temporary beside the SVD's vectors."""
    u, shift = spec.u_eff, spec.alpha - 1
    q, _, pt, inv_e = _singular_triples(spec, tol_zero)
    diagonal = np.zeros(2 * spec.cells)
    diagonal[0 : 2 * len(inv_e) : 2] = np.einsum("in,n,in->i", q, -u * inv_e, q)
    diagonal[2 * shift + 1 :: 2] = np.einsum("ni,n,ni->i", pt, u * inv_e, pt)
    return diagonal


def _subsystem_correlation(
    spec: ChainSpec, cells: int, tol_zero: float = TOL_ZERO
) -> tuple[np.ndarray, str]:
    """The leading 2 cells x 2 cells block of M = -2i S^-1 (C - 1/2) S, or
    on the ``k_space`` route the coefficients it is formed from, and the
    route: the one place that picks a route. :func:`_leading_block` forms
    the block from either.

    M is real for every state of the family, nu = 1/2 + (i/2) eig(M). Only
    the leading rows of C are formed, never the 2L x 2L product. Routes:

    ``"k_space"``
        clean periodic chains: the inverse FFT g, 2 x 2 x L, of the
        per-momentum blocks M_k = [[-u, -conj(v_k)], [v_k, u]] / e_k, whose
        Toeplitz blocks g[a, b, (i - j) mod L] make M at any size
        (:func:`_toeplitz_correlation`); ``cells`` is not needed. The grid
        holds k and -k as exact negatives, so M_-k = conj(M_k) and the
        transform is real: a real inverse FFT (``irfft``) of the k >= 0
        half of the FFT-ordered grid;
    ``"singular_mode"``
        clean open chains: per singular triple of the hopping block
        (:func:`_singular_mode_block`, the same block with v_k -> s);
    ``"dense"``
        disordered chains: biorthogonal diagonalization of the real
        2L x 2L gauge matrix from ``lattice._gauge_matrix``, where the
        block is one real product over the filled conjugate pairs
        (:meth:`spectral._PackedSystem.gauged_block`).

    Each route fills the spectrum with the kernel of its ground-state
    energy: both clean routes take e_k, or 0 for a half-filled pair, from
    :func:`_half_filled_energies`. Every route checks the distance from an
    exceptional point first, then decides the half filling in
    :func:`half_filling_weights` at ``tol_zero``.
    """
    if spec.is_translation_invariant and spec.boundary is Boundary.PBC:
        L, u = spec.cells, spec.u_eff
        v = np.asarray(vk(spec, _momenta(L)))
        e = _half_filled_energies(np.abs(v), u, tol_zero)
        inv_e = np.divide(1.0, e, out=np.zeros(L), where=e > 0)
        uk = np.full(L, u)
        m = np.array([[-uk, -np.conj(v)], [v, uk]]) * inv_e  # M_k, k last
        return np.fft.irfft(m[..., : L // 2 + 1], n=L), "k_space"
    if spec.is_translation_invariant:
        return _singular_mode_block(spec, cells, tol_zero), "singular_mode"
    sys = _real_gauge_system(_gauge_matrix(spec))
    weights = half_filling_weights(sys.energies, tol_zero)
    return sys.gauged_block(weights, 2 * cells), "dense"


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

    in_range, lo, hi = ModeLabel.REAL_IN_RANGE, -tol.tol_real, 1.0 + tol.tol_real
    for i in np.lexsort((np.arange(n), nus.imag, nus.real)).tolist():
        if not free[i] or not is_real[i]:
            continue
        x = vals[i].real
        if lo <= x <= hi:
            # take() inline: most modes of a spectrum are these singletons
            free[i] = False
            labels[i] = in_range
            groups.append(_record(ModeGroup, (in_range, (i,))))
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
    # a float nu stays float, with the bits of the complex evaluation
    t = 0.0
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


def _real_share(nu: complex) -> float:
    return _abs_term(nu.real)


def _edge_share(nu: complex) -> complex:
    return _edge_pair_branch(abs(nu.imag)) / 2.0


def _quartet_share(nu: complex) -> complex:
    return _quartet_branch(_quartet_params(nu if nu.imag > 0 else nu.conjugate())) / 4.0


def _branch_share(group: ModeGroup, nu: complex, tol: ToleranceSet):
    """Share function of the modes of group, nu one of them, and the
    group's branch shifts: each mode's part of BRANCH_CUT(spectrum +
    conjugates) / 2 (see REGULARIZED above). The label is matched by
    identity, not looked up: a label's ``Enum.__hash__`` is a Python call.
    :func:`entropy` takes a real-in-range mode's share inline."""
    label = group.label
    if label is ModeLabel.REAL_PAIR:
        return _real_share, 1
    if label is ModeLabel.EDGE_PAIR:
        return _edge_share, 1
    if label is ModeLabel.QUARTET:
        return _quartet_share, 2
    if label is ModeLabel.RESIDUAL_PH_PAIR:
        return (_edge_share if len(group.indices) == 1 else _quartet_share), 0
    if abs(nu.imag) < tol.tol_real:  # UNPAIRED, placed by its own position
        return _real_share, 0
    return (_edge_share if abs(nu.real - 0.5) < tol.tol_edge else _quartet_share), 0


def entropy(
    spectrum: EntanglementSpectrum, prescription: Prescription
) -> ComplexEntropy:
    """Complex entanglement entropy of a classified spectrum.

    Each group of the spectrum gives one ledger entry, the sum of one term
    per mode. REGULARIZED takes each mode's share of its multiplet
    (:func:`_branch_share`); BRANCH_CUT is the same sum, which it refuses
    for spectra with unpaired modes and directs to REGULARIZED for spectra
    that carry only the particle-hole pairing. Under both, a real-in-range
    mode's share, its magnitude logs (:func:`_abs_term` of Re nu), is
    evaluated inline, in the same operations.
    """
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
    if prescription is Prescription.PRINCIPAL:
        term = _principal_term
    elif prescription is Prescription.ABSOLUTE_VALUE:
        term = _abs_term
    else:
        term = None
    in_range, log = ModeLabel.REAL_IN_RANGE, math.log
    tol = spectrum.tolerances
    nus = spectrum.eigenvalues.tolist()
    entries: list[LedgerEntry] = []
    total = 0.0 + 0.0j
    for group in spectrum.groups:
        label, indices = group
        val = 0.0 + 0.0j
        if term is not None:
            shifts = 0
            for i in indices:
                val += term(nus[i])
        elif label is in_range:
            shifts = 0
            for i in indices:
                x = nus[i].real
                t = 0.0
                if x != 0:
                    t -= x * log(abs(x))
                if x != 1:
                    t -= (1.0 - x) * log(abs(1.0 - x))
                val += t
        else:
            share, shifts = _branch_share(group, nus[indices[0]], tol)
            for i in indices:
                val += share(nus[i])
        entries.append(_record(LedgerEntry, (label, val, shifts, indices)))
        total += val
    return ComplexEntropy(total, tuple(entries), prescription)


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
    """Entropy against subsystem size, with per-size mode counts, the
    route that formed the correlation block (``"k_space"``,
    ``"singular_mode"`` or ``"dense"``) and the number of threads that
    solved the subsystem spectra (1: the calling thread alone)."""

    ells: np.ndarray
    entropies: tuple[ComplexEntropy, ...]
    n_edge_pairs: np.ndarray
    n_quartets: np.ndarray
    n_residual: np.ndarray
    prescription: Prescription
    route: str
    workers: int = 1

    @property
    def values(self) -> np.ndarray:
        return np.array([s.value for s in self.entropies])


#: Smallest min |mu| / (||P||_1 ||Q||_1) at which :func:`_subsystem_eigvals`
#: keeps the halved solve. The product P Q and its eigensolve carry a
#: backward error of up to about ell u ||P||_1 ||Q||_1 (u = 2.2e-16, from
#: the ell-term sums of the product), below 1e-12 up to ell = 4500, and the
#: square root turns a mu within that error of 0 into noise of size
#: sqrt(error). Over 2106 k-space blocks (README, "Numerical tolerances")
#: every block that the unguarded halving misclassified sat below 5e-18;
#: the fig2a-c blocks sit at 7.1e-10 or more at L = 10000.
_MU_FLOOR = 1e-12


def _halved_eigvals(t: np.ndarray, h: np.ndarray, eigvals) -> np.ndarray | None:
    """Eigenvalues lambda = +-sqrt(eig(P Q)) of a reflection-odd block with
    halves P = T - H and Q = T + H, solved with ``eigvals``; None where
    min |mu| sits below ``_MU_FLOOR`` ||P||_1 ||Q||_1 and the block must
    take the 2 ell solve instead (:func:`_subsystem_eigvals`).

    T = M_AA and H = M_AB J of the block. P and Q are formed here, from T
    and H (strided views on the ``k_space`` route), their norms taken and
    both dropped, so that the solve holds one ell x ell array, P Q, formed
    Fortran-ordered: the layout LAPACK takes.
    """
    p, q = t - h, t + h
    floor = _MU_FLOOR * np.linalg.norm(p, 1) * np.linalg.norm(q, 1)
    pq = np.matmul(p, q, order="F")
    del p, q
    mu = eigvals(pq).astype(complex, copy=False)
    del pq
    if np.min(np.abs(mu)) >= floor:
        root = np.sqrt(mu)
        return np.concatenate([root, -root])
    return None


def _subsystem_eigvals(corr: np.ndarray, route: str, ell: int, eigvals) -> np.ndarray:
    """Eigenvalues lambda of the gauged 2 ell x 2 ell block M_A of M, from
    ``corr``, what :func:`_subsystem_correlation` returned on ``route``,
    solved with ``eigvals``; nu = 1/2 + (i/2) lambda.

    On the k-space route M_A = [[-u X, -Y^T], [Y, u X]] by sublattice, with
    X symmetric Toeplitz and Y Toeplitz, so J X J = X and J Y J = Y^T for the
    flip J. The reflection Gamma: A(i) <-> B(ell-1-i) then gives
    Gamma M_A Gamma = -M_A, and in Gamma's +-1 basis M_A = [[0, P], [Q, 0]]
    with P = M_AA - M_AB J and Q = M_AA + M_AB J. So lambda = +-sqrt(mu),
    mu = eig(P Q): one real ell x ell eigensolve in place of a 2 ell x 2 ell
    one (:func:`_halved_eigvals`). The pairing is exact: mu > 0 is an edge
    pair at Re nu = 1/2 to the last bit, mu < 0 two real modes nu, 1 - nu,
    and a complex pair of mu a quartet. M_AA[i, j] = g[0, 0, (i - j) mod L]
    and M_AB J[i, j] = g[0, 1, (i + j - ell + 1) mod L] are strided views on
    g (:func:`_toeplitz_blocks`), so no 2 ell block is formed.

    Near mu = 0 the square root amplifies rounding, which can push
    half-filled modes across ``tol_real``; a block with min |mu| below
    ``_MU_FLOOR`` ||P||_1 ||Q||_1 takes the 2 ell solve instead, formed from
    g for that size alone, as do the blocks of the other routes, which have
    no such reflection.

    ``eigvals`` is a function of a real matrix that may overwrite it, and
    each call gets a fresh Fortran-ordered array: the bound ``dgeev`` of
    every route (:func:`spectral._geev`) solves that copy in place, with no
    copy of its own. It returns complex or float64 eigenvalues
    (:func:`_solve_blocks` picks it). The result is cast to
    complex, since ``np.linalg.eigvals`` returns float64 when every
    eigenvalue is real, and sqrt of a negative float64 mu is NaN.
    """
    if route == "k_space":
        t = _toeplitz_blocks(corr, ell)
        lam = _halved_eigvals(t[0, 0], t[0, 1, :, ::-1], eigvals)
        if lam is not None:
            return lam
    block = np.array(_leading_block(corr, route, ell), order="F")
    return eigvals(block).astype(complex, copy=False)


def _solve_blocks(
    corr: np.ndarray, route: str, ells: np.ndarray
) -> tuple[list[np.ndarray], int]:
    """:func:`_subsystem_eigvals` of every size of ``ells`` (ascending) from
    ``corr``, what :func:`_subsystem_correlation` returned on ``route``, in
    order, and the number of threads that solved them: the one place that
    picks a subsystem solver and its BLAS thread count.

    The calling thread and ``workers - 1`` helper threads take the sizes
    off one shared list, largest first; the first error raised is raised
    again once every helper has stopped. The solver, per route:

    * dense: ``dgeev`` (:func:`spectral._geev`) on scipy's LAPACK, the
      library of the rest of the dense solve, so that a dense run keeps to
      one BLAS pool; the caller alone, at its BLAS thread count: the
      realizations already fill the cores;
    * clean: the same call on numpy's LAPACK, without the GIL, one thread
      per usable CPU and at most one per block, with numpy's OpenBLAS
      pinned to one thread for the call and restored after it, also when a
      solve raises. The spectra depend on neither the CPU count nor the
      caller's BLAS thread count;
    * clean, where numpy does not export ``dgeev``: ``np.linalg.eigvals``,
      the same LAPACK call, the caller alone at its BLAS thread count.
    """
    dense = route == "dense"
    lapack = _scipy_lapack() if dense else _numpy_lapack()
    if lapack is None:
        eigvals, workers = np.linalg.eigvals, 1
    else:
        eigvals = partial(_geev, lapack)
        workers = 1 if dense else min(_usable_cpus(), len(ells))
    results: list = [None] * len(ells)
    todo = list(range(len(ells)))  # sizes ascend: pop() takes the largest
    errors: list[BaseException] = []

    def work():
        while True:
            try:
                i = todo.pop()  # one atomic call: no two threads take the same block
            except IndexError:
                return
            try:
                results[i] = _subsystem_eigvals(corr, route, int(ells[i]), eigvals)
            except BaseException as exc:
                errors.append(exc)
                todo.clear()
                return

    helpers = []
    with _one_blas_thread(None if dense else lapack):
        try:
            for _ in range(workers - 1):
                helper = threading.Thread(target=work)
                helper.start()
                helpers.append(helper)
            work()
        finally:
            todo.clear()  # a helper stops after its current block
            for helper in helpers:
                helper.join()
    if errors:
        raise errors[0]
    return results, workers


def _subsystem_sizes(ells, cells: int) -> np.ndarray:
    """The distinct sizes in 1..cells, sorted (see :func:`lattice._integers`)."""
    sizes = np.asarray(sorted(set(_integers(ells, "subsystem sizes"))))
    if not len(sizes) or np.any(sizes < 1) or np.any(sizes > cells):
        raise ValueError(f"subsystem sizes must be a non-empty list in 1..{cells}")
    return sizes


def _subsystem_cells(ell, cells: int) -> int:
    """One subsystem size as an int in 1..cells (see :func:`lattice._integers`)."""
    [n] = _integers([ell], "subsystem sizes")
    if not 1 <= n <= cells:
        raise ValueError(f"subsystem of {n} cells out of range 1..{cells}")
    return n


def entropy_profile(
    spec: ChainSpec,
    ells,
    prescription: Prescription = Prescription.BRANCH_CUT,
    tolerances: ToleranceSet = DEFAULT_TOLERANCES,
    tol_zero: float = TOL_ZERO,
) -> EntropyProfile:
    """Entropy for a list of leading-block sizes on one chain.

    The correlation is formed once by :func:`_subsystem_correlation`
    (k-space for clean periodic chains, singular modes for clean open
    chains, dense for disordered chains) and the profile records that
    route. The singular-mode and dense blocks are formed at the largest size
    and sliced per size; the k-space route keeps its 2 x 2 x L coefficients
    g and forms each size's halves from them, so no block of the largest
    size is ever held.

    The subsystem eigensolve is real: the blocks are those of
    M = -2i S^-1 (C - 1/2) S in the sublattice gauge, and
    nu = 1/2 + (i/2) eig(M). A real eigenvalue of M is a self-paired mode
    at Re nu = 1/2 exactly; the others come in conjugate pairs, which are
    exact particle-hole partners nu, 1 - nu^*. On the k-space route a
    reflection of the block halves it to one real ell x ell solve, with a
    fallback to the 2 ell x 2 ell solve near its square-root singularity
    (:func:`_subsystem_eigvals`); the other routes take the 2 ell solve.

    :func:`_solve_blocks` picks the solver: on the clean routes, where numpy
    exports its ``dgeev``, the sizes are solved concurrently, each on one
    BLAS thread, and the spectra depend on neither the CPU count nor the
    caller's BLAS thread count. The profile records the thread count as
    ``workers``. Classification and entropy then run in size order.
    """
    ells = _subsystem_sizes(ells, spec.cells)
    corr, route = _subsystem_correlation(spec, int(ells[-1]), tol_zero)
    eigvals, workers = _solve_blocks(corr, route, ells)
    results = []
    counts = np.zeros((3, len(ells)), dtype=int)
    for col, lam in enumerate(eigvals):
        spect = classify_spectrum(0.5 + 0.5j * lam, tolerances)
        results.append(entropy(spect, prescription))
        counts[:, col] = (spect.n_edge_pairs, spect.n_quartets, spect.n_residual)
    return EntropyProfile(
        ells=ells,
        entropies=tuple(results),
        n_edge_pairs=counts[0],
        n_quartets=counts[1],
        n_residual=counts[2],
        prescription=prescription,
        route=route,
        workers=workers,
    )
