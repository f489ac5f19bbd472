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
imaginary sublattice potential, so in the sublattice gauge S (defined in
``lattice._to_sites``) G = -i S^-1 H S is real, and ``lattice._gauge_matrix``
builds it. Dense eigensolves run on G, in real arithmetic (dgeev rather
than zgeev), and map back with E = i lambda and eigenvectors S v. The
pairing E <-> -E^* is then the exact conjugate pairing of a real
spectrum, and modes on the imaginary axis come out at Re E = 0 exactly.
A matrix outside the family, whose gauge is complex, takes the same
kernel in complex arithmetic.

The dense route of the correlation block stays real end to end: the
eigenvectors stay in LAPACK's packed form (a conjugate pair as real and
imaginary parts in adjacent columns), they are normalized by the real
rule vl^T vr = D (:func:`_real_gauge_system`) and checked from one real
Gram product, and the gauged block is one real product over the filled
pairs (:class:`_PackedSystem`). Only :meth:`_PackedSystem.unpacked`
converts them to complex.
"""

from __future__ import annotations

import contextlib
import functools
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .errors import AmbiguousFilling, DefectiveMatrix
from .lattice import (Boundary, ChainSpec, _gauge_matrix, _momenta, _open_bidiagonal,
                      _to_sites, vk)

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
    """-i S^-1 X S of a matrix handed to :func:`biorthogonal_diagonalize`
    (the package's routes build G directly), exact: entries only change by
    +-1 and +-i. Float64 when exactly real, as on the family, else complex.
    """
    s = _to_sites(np.ones(X.shape[-1], dtype=complex))
    Y = -1j * (s.conj()[:, None] * X * s)
    return Y if np.any(Y.imag) else Y.real


def biorthogonal_diagonalize(
    H: np.ndarray, tol_biorth: float = TOL_BIORTH
) -> BiorthogonalSystem:
    """Diagonalize a dense complex matrix into a biorthonormal system.

    The eigensolve runs on A = -i S^-1 H S in the sublattice gauge, in
    :func:`_real_gauge_system`, the one dense kernel: in real arithmetic for
    every chain of the family, whose gauge is real, and in complex for a
    matrix outside it. S is unitary, so overlaps are unchanged.

    Eigenvalues are ordered deterministically by (Re, Im, input index).
    Nearly degenerate eigenvalues are re-biorthogonalized block-wise via the
    overlap matrix of the unit left and right vectors. Its smallest singular
    value (|<L|R>| for a single eigenvalue) is the distance kappa from an
    exceptional point, checked by :func:`_require_off_exceptional_point`.
    """
    H = np.asarray(H, dtype=complex)
    if not np.all(np.isfinite(H)):
        raise ValueError("Hamiltonian has non-finite entries")
    return _real_gauge_system(_sublattice_gauge(H), tol_biorth).unpacked()


def _require_biorthogonal(residual: float, kappa: float, tol_biorth: float,
                          A: np.ndarray) -> None:
    """:class:`DefectiveMatrix` when the Gram residual exceeds ``tol_biorth``.

    The message gives kappa and the block error it predicts,
    eps ||A||_1 / kappa^2 for the matrix A that was solved, always the gauge
    matrix, with ||A||_1 = ||H||_1 (README, "Numerical tolerances"). The
    norm is taken only here, when the check fails.
    """
    if residual > tol_biorth:
        norm = float(np.max(np.sum(np.abs(A), axis=0)))
        estimate = np.finfo(float).eps * norm / kappa**2
        raise DefectiveMatrix(
            f"biorthogonality residual {residual:.2e} exceeds {tol_biorth:.1e} "
            f"at a distance kappa = {kappa:.1e} from an exceptional point "
            f"(estimated block error eps ||A||_1 / kappa^2 = {estimate:.1e}); "
            "increase the detuning"
        )


@dataclass(frozen=True)
class _PackedSystem:
    """Biorthonormal eigensystem of a gauge matrix A = -i S^-1 H S, in
    LAPACK's packed form.

    On a real A, column j of ``vl`` and ``vr`` holds the real eigenvectors
    of a real eigenvalue lam[j]. A conjugate pair lam[j] = conj(lam[j + 1]),
    Im > 0 first, keeps its vectors as real and imaginary parts in columns j
    and j + 1: l = vl[:, j] + i vl[:, j + 1], r likewise, and the partner's
    vectors are their conjugates. A complex A, outside the family, has
    complex columns and no ``pairs``. ``vl`` is normalized so that the
    complex vectors satisfy L^dag R = I to within ``residual``. ``order``
    sorts the energies E = i lam by (Re, Im, index). ``kappa``, at most 1,
    is the smallest distance of a mode from an exceptional point.
    """

    wr: np.ndarray  # lam = wr + i wi
    wi: np.ndarray
    vl: np.ndarray
    vr: np.ndarray
    pairs: np.ndarray  # first column j of every conjugate pair
    order: np.ndarray
    residual: float
    kappa: float

    @property
    def energies(self) -> np.ndarray:
        """E = i lam in (Re, Im, index) order."""
        return (1j * (self.wr + 1j * self.wi))[self.order]

    def unpacked(self) -> BiorthogonalSystem:
        """The complex system in the order of :attr:`energies`, with the
        vectors back from the gauge: R = S r, L = S l."""
        L, R = (_to_sites(self._complex(v)[:, self.order]) for v in (self.vl, self.vr))
        return BiorthogonalSystem(self.energies, R, L, self.residual)

    def _complex(self, v: np.ndarray) -> np.ndarray:
        out = v.astype(complex)
        out[:, self.pairs] += 1j * v[:, self.pairs + 1]
        out[:, self.pairs + 1] = out[:, self.pairs].conj()
        return out

    def gauged_block(self, weights: np.ndarray, rows: int) -> np.ndarray:
        """Leading rows x rows block of M = -2i S^-1 (C - 1/2) S, real, for
        the occupancies ``weights`` of :attr:`energies` of a real A.

        C - 1/2 = sum_n (s_n - 1/2) conj(L_n) R_n^T and S^2 = sigma =
        diag(1, -1, 1, -1, ...). A real lam is a mode on the imaginary axis,
        and a pair with |Im lam| <= tol_zero two of them: each has s = 1/2
        and drops out. Every other pair has its Im lam > 0 member (Re E < 0)
        filled and its partner empty, and adds i Im(conj(l) r^T) =
        i (a y^T - b x^T) for l = a + ib, r = x + iy. So

            M = 2 sigma [sum over filled pairs of (a y^T - b x^T)] sigma,

        one real product over the filled pairs.
        """
        s = np.empty(len(weights))
        s[self.order] = weights
        filled = self.pairs[s[self.pairs] == 1.0]
        sigma = np.ones((rows, 1))
        sigma[1::2] = -1.0
        a, b = self.vl[:rows, filled], self.vl[:rows, filled + 1]
        x, y = self.vr[:rows, filled], self.vr[:rows, filled + 1]
        left = np.concatenate([a, -b], axis=1) * (2.0 * sigma)
        right = np.concatenate([y, x], axis=1) * sigma
        return _gemm(left, right.T)


def _real_gauge_system(A: np.ndarray, tol_biorth: float = TOL_BIORTH) -> _PackedSystem:
    """Biorthonormal eigensystem of a gauge matrix in LAPACK's packed form
    (:class:`_PackedSystem`), normalized in real arithmetic where A is real:
    the one dense eigensolve of the package.

    One ``dgeev`` with both vector sets. The complex vectors are the packed
    ones times U = 1 on a real column and [[1, 1], [i, -i]] on a pair, and
    U U^dag = 1 and 2 there: L^dag R = I is the real rule vl^T vr = D, D = 1
    on a real column and 1/2 on each column of a pair. A mode's columns Q
    take vl_Q <- vl_Q T_Q^-T D, T_Q = vl_Q^T vr_Q, and its kappa is
    sigma_min(W T_Q W), W = D^-1/2, of LAPACK's unit vectors, that of the
    complex overlap. A cluster of nearly degenerate modes takes as Q its
    real columns and both columns of every pair it touches, shared with its
    mirror E <-> -E^*, and one SVD of W T_Q W gives both
    (:func:`_cluster_rule`). A single mode takes the closed forms:
    l <- l / (l.r) and kappa = |l.r| on a real column; [a b] <- [a b] K
    with K^T [[a.x, a.y], [b.x, b.y]] = I / 2 and kappa = |l^dag r| on a
    pair. The pair's rule holds l^dag conj(r) = 0 too, which exact
    eigenvectors meet already; enforcing it keeps the partner overlap, of
    size eps |l| |r|, out of the residual: near an exceptional point it
    alone reached 1.16e-9 (v = 2, w = 1, u = 1, 40 periodic cells, default
    detuning), where every other entry stays at 6.4e-10.

    A complex A, outside the family, takes ``zgeev`` and the same rule with
    no pairs: D = 1 on every column, each column its own partner, and
    conjugate transposes in place of the transposes (``conj()`` of a real
    array is the array itself, so the real arithmetic is untouched).

    Every kappa is taken from LAPACK's vectors, and the first below
    ``_KAPPA_EP`` in (Re, Im) order raises. The residual covers every entry
    of the complex Gram matrix, from one product T = vl^dag vr
    (:func:`_packed_gram_residual`).
    """
    n = len(A)
    if np.iscomplexobj(A):
        lam, vl, vr = _geev(_scipy_lapack(), np.array(A, order="F"), vectors=True)
        wr, wi, pairs = lam.real, lam.imag, np.empty(0, dtype=np.intp)
    else:
        wr, wi, vl, vr = _geev(_scipy_lapack(), np.array(A, order="F"), vectors=True)
        pairs = np.flatnonzero(wi > 0)
    # E = i lam = -wi + i wr, in (Re, Im, index) order
    order = np.lexsort((np.arange(n), wr, -wi))
    partner = np.arange(n)  # the other column of a pair, else the column itself
    partner[pairs], partner[pairs + 1] = pairs + 1, pairs
    half = np.ones(n)  # D of the rule vl^dag vr = D
    half[pairs] = half[pairs + 1] = 0.5

    # per column c, conj(vl[:, c]) . vr[:, c]; per pair, the cross products a.y, b.x
    dot = np.einsum("ij,ij->j", vl.conj(), vr)
    xy = np.einsum("ij,ij->j", vl[:, pairs], vr[:, pairs + 1])
    yx = np.einsum("ij,ij->j", vl[:, pairs + 1], vr[:, pairs])
    kappas = np.abs(dot)  # per column; a pair's two columns share kappa = |d|
    d = (dot[pairs] + dot[pairs + 1]).real, (xy - yx).real  # only a real A has pairs
    kappas[pairs] = kappas[pairs + 1] = np.hypot(*d)

    tol = _CLUSTER_REL * max(float(np.max(np.hypot(wr, wi))), 1.0)
    single = np.ones(n, dtype=bool)
    column_sets: list[set] = []  # Q of each cluster, joined with its mirror's
    for lo, hi in _cluster_blocks(np.stack([-wi[order], wr[order]]), tol):
        if hi - lo > 1:
            cols = order[lo:hi]
            q = {*cols.tolist(), *partner[cols].tolist()}
            column_sets = [s for s in column_sets if not s & q] + [
                q.union(*(s for s in column_sets if s & q))]
    for q in column_sets:  # kappa from LAPACK's vectors, then the rule on Q
        Q = np.array(sorted(q))
        kappas[Q], vl[:, Q] = _cluster_rule(vl[:, Q], vr[:, Q], half[Q])
        single[Q] = False
    bad = np.flatnonzero(~(kappas[order] >= _KAPPA_EP))
    if len(bad):
        _require_off_exceptional_point(kappas[order[bad[0]]])
    kappa = min(1.0, float(np.min(kappas)))

    alone = np.flatnonzero(single & (partner == np.arange(n)))
    vl[:, alone] /= dot[alone].conj()
    own = single[pairs]
    p = pairs[own]
    # [a b] <- [a b] K with K^T [[a.x, a.y], [b.x, b.y]] = I / 2
    txx, tyy, txy, tyx = dot[p], dot[p + 1], xy[own], yx[own]
    det2 = 2.0 * (txx * tyy - txy * tyx)
    a, b = vl[:, p], vl[:, p + 1]
    vl[:, p], vl[:, p + 1] = (a * tyy - b * txy) / det2, (b * txx - a * tyx) / det2

    residual = _packed_gram_residual(_gemm(vl.conj().T, vr), pairs)
    _require_biorthogonal(residual, kappa, tol_biorth, A)
    return _PackedSystem(wr, wi, vl, vr, pairs, order, residual, kappa)


def _cluster_rule(vl: np.ndarray, vr: np.ndarray, half: np.ndarray):
    """kappa and the normalized left vectors vl T^-H D of one cluster's
    columns, T = vl^dag vr and D = diag(``half``), from one SVD
    W T W = U S V^dag, W = D^-1/2 (:func:`_svd`): kappa = S_min and
    T^-H D = W U S^-1 V^dag W^-1. Below ``_KAPPA_EP``, where the kernel
    raises, vl is returned as it is."""
    w = 1.0 / np.sqrt(half)
    u, s, vh = _svd(w[:, None] * _gemm(vl.conj().T, vr) * w)
    if not s[-1] >= _KAPPA_EP:
        return s[-1], vl
    return s[-1], _gemm(vl, _gemm(w[:, None] * u / s, vh / w))


def _packed_gram_residual(T: np.ndarray, pairs: np.ndarray) -> float:
    """max |L^dag R - I| over every entry of the complex Gram matrix, from
    T = vl^dag vr of the packed vectors (``pairs``: first column of each
    pair): max |T - I| where T is complex, which has no pairs.

    Each entry is a +- combination of four entries of T: for pair rows
    j, j + 1 (l = a + ib) and pair columns k, k + 1 (r = x + iy),
    l_j^dag r_k = (a.x + b.y) + i (a.y - b.x) and
    l_j^dag r_(k+1) = (a.x - b.y) - i (a.y + b.x). Row j + 1 is row j
    conjugated with every pair's two columns swapped, so it has the same
    moduli and is skipped.
    """
    if np.iscomplexobj(T):
        return float(np.max(np.abs(T - np.eye(len(T)))))
    keep = np.ones(len(T), dtype=bool)
    keep[pairs + 1] = False
    rows = np.flatnonzero(keep)
    # rows of U^dag T, where U maps packed columns to complex ones
    xr = T[rows]
    xi = np.zeros_like(xr)
    xi[np.searchsorted(rows, pairs)] = -T[pairs + 1]
    gr, gi = xr.copy(), xi.copy()
    p, q = pairs, pairs + 1
    gr[:, p] = xr[:, p] - xi[:, q]
    gi[:, p] = xi[:, p] + xr[:, q]
    gr[:, q] = xr[:, p] + xi[:, q]
    gi[:, q] = xi[:, p] - xr[:, q]
    gr[np.arange(len(rows)), rows] -= 1.0
    gr *= gr
    gi *= gi
    gr += gi
    return float(np.sqrt(np.max(gr)))


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
    """Consecutive index ranges of (Re, Im)-sorted eigenvalues closer than
    tol, from their (Re, Im) rows, a real 2 x n array."""
    gaps = np.hypot(*np.diff(E))
    cuts = (np.flatnonzero(gaps > tol) + 1).tolist()
    edges = [0, *cuts, E.shape[-1]]
    return list(zip(edges[:-1], edges[1:]))


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
    return _gemm(sys.left_vectors.conj() * occ.weights[None, :], sys.right_vectors.T)


#: Arguments of the bound LAPACK and BLAS routines, one code each:
#: c a character, i an integer, I an integer array, d a float64 array and
#: z a complex128 array. Each character adds a hidden length at the end.
_SIGNATURES = {
    # jobvl, jobvr, n, a, lda, wr, wi, vl, ldvl, vr, ldvr, work, lwork, info
    "dgeev": "ccididddididii",
    # jobvl, jobvr, n, a, lda, w, vl, ldvl, vr, ldvr, work, lwork, rwork, info
    "zgeev": "ccizizzizizidi",
    # transa, transb, m, n, k, alpha, a, lda, b, ldb, beta, c, ldc
    "dgemm": "cciiiddididdi",
    "zgemm": "cciiizzizizzi",
    # jobz, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, iwork, info
    "dgesdd": "ciididdididiIi",
    # jobz, m, n, a, lda, s, u, ldu, vt, ldvt, work, lwork, rwork, iwork, info
    "zgesdd": "ciizidzizizidIi",
    # n, d, e, work, info
    "dlasq1": "idddi",
    # uplo, compq, n, d, e, u, ldu, vt, ldvt, q, iq, work, iwork, info
    "dbdsdc": "ccidddididIdIi",
}


#: ctypes functions of one LAPACK and BLAS library: the routines of
#: :data:`_SIGNATURES` under their LAPACK names, and the thread control of
#: its OpenBLAS pool, None where the library exports none.
_Lapack = NamedTuple("_Lapack", [
    ("file", str),
    ("integer", type),  # the ctypes type of the library's integers
    *((name, Callable) for name in _SIGNATURES),
    ("get_threads", Callable[[], int] | None),
    ("set_threads", Callable[[int], None] | None),
])


def _bind_lapack(file: str, bits: int) -> _Lapack:
    """The routines of :data:`_SIGNATURES` and the OpenBLAS thread control
    that the library ``file`` or its dependencies export, with ``bits``-wide
    integers, looked up on its handle, whose dependencies dlsym searches.

    Each name is tried as numpy's and scipy's wheels export it,
    ``scipy_dgeev_`` (``scipy_dgeev_64_`` at 64 bits), then plain,
    ``dgeev_``. A routine under neither name raises ImportError naming it;
    a thread control under neither leaves both functions None.
    """
    import ctypes

    integer, suffix = (ctypes.c_int64, "64_") if bits == 64 else (ctypes.c_int32, "")
    lib = ctypes.CDLL(file)

    def symbol(name: str):
        for found in (f"scipy_{name}", name):
            if hasattr(lib, found):
                return getattr(lib, found)
        return None

    types = {"c": ctypes.c_char_p, "i": ctypes.POINTER(integer)}
    for code, dtype in (("d", np.float64), ("z", np.complex128), ("I", integer)):
        types[code] = np.ctypeslib.ndpointer(np.dtype(dtype), flags="F_CONTIGUOUS")
    routines = {}
    for name, codes in _SIGNATURES.items():
        routine = symbol(f"{name}_{suffix}")
        if routine is None:
            raise ImportError(
                f"{file} exports neither scipy_{name}_{suffix} nor {name}_{suffix}; "
                "ptchain binds the LAPACK of numpy's and scipy's wheels (their "
                "bundled scipy-openblas) or one that exports the plain LAPACK names")
        routine.argtypes = [types[c] for c in codes] + [ctypes.c_size_t] * codes.count("c")
        routine.restype = None
        routines[name] = routine
    get, set_ = (symbol(f"openblas_{op}_num_threads{suffix}") for op in ("get", "set"))
    if get is None or set_ is None:
        get = set_ = None
    else:
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
    return _Lapack(file, integer, **routines, get_threads=get, set_threads=set_)


@functools.cache
def _numpy_lapack() -> _Lapack | None:
    """The library ``numpy.linalg`` links (:func:`_bind_lapack`, 64-bit
    integers as in numpy's wheels), the clean routes', or None where it does
    not export the routines: the clean routes then take ``numpy.linalg``'s
    own functions.

    Bound on the handle of ``numpy.linalg._umath_linalg``. A ctypes call
    releases the GIL, which ``np.linalg.eigvals`` holds, so solves on
    several threads run at once.
    """
    try:
        from numpy.linalg import _umath_linalg

        return _bind_lapack(_umath_linalg.__file__, 64)
    except (ImportError, OSError):
        return None


@functools.cache
def _scipy_lapack() -> _Lapack:
    """The library scipy's ``_flapack`` extension links (:func:`_bind_lapack`,
    32-bit integers), the dense route's, bound on that route's first call.

    numpy has no eigensolver with left eigenvectors, so the dense route runs
    on scipy's LAPACK, and its products and factorizations on the BLAS
    beside it: one OpenBLAS pool per run. The extension is found on scipy's
    path and opened by ctypes, not imported: ``import scipy.linalg`` costs
    about 21 MB of resident memory, the binding about 2 MB. ImportError
    where scipy or one of its routines is missing.
    """
    import importlib.machinery
    import importlib.util

    scipy = importlib.util.find_spec("scipy")
    dirs = [os.path.join(d, "linalg") for d in (scipy and scipy.submodule_search_locations
                                               or [])]
    found = importlib.machinery.PathFinder.find_spec("_flapack", dirs)
    if found is None:
        raise ImportError("the dense route runs on scipy's LAPACK, and "
                          "scipy.linalg._flapack was not found; install scipy")
    return _bind_lapack(found.origin, 32)


@contextlib.contextmanager
def _one_blas_thread(lapack: _Lapack | None):
    """``lapack``'s OpenBLAS pool on one thread inside the block and the
    caller's count restored after it, also when the block raises; nothing is
    called where ``lapack`` is None, exports no thread control or is at one
    thread already: in a forked worker, OpenBLAS would start a fresh helper
    thread to set any count. At one thread a pool's products and LAPACK
    calls round the same whatever the caller's count."""
    if lapack is None or lapack.set_threads is None:
        yield
        return
    previous = lapack.get_threads()
    if previous == 1:
        yield
        return
    lapack.set_threads(1)
    try:
        yield
    finally:
        lapack.set_threads(previous)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _lapack_dtype(*arrays) -> type:
    """complex128 where any of ``arrays`` is complex, else float64: the
    two types the bound routines take."""
    return np.complex128 if any(np.iscomplexobj(x) for x in arrays) else np.float64


#: Optimal workspace lengths that workspace queries returned, by the key
#: their caller gave :func:`_with_workspace`: (library file, dtype, n, job)
#: for :func:`_geev`. LAPACK's answer depends on nothing else, so each
#: later call of the key makes one call in place of two. Two threads that
#: query one key at once store the same length.
_WORKSPACES: dict[tuple, int] = {}


def _with_workspace(lapack: _Lapack, dtype, call: Callable, failure: str,
                    key: tuple | None = None) -> None:
    """``call(work, lwork, info)`` with the optimal workspace, as scipy's
    wrappers and ``numpy.linalg`` take it: a workspace query, then the
    call. With ``key``, the query is made once: its answer is kept in
    :data:`_WORKSPACES`. A nonzero info raises ``numpy.linalg.LinAlgError``."""
    info = lapack.integer()
    lwork = _WORKSPACES.get(key)
    if lwork is None:
        work = np.empty(1, dtype)
        call(work, lapack.integer(-1), info)
        if info.value:
            raise np.linalg.LinAlgError(f"{failure} (info = {info.value})")
        lwork = max(int(work[0].real), 1)
        if key is not None:
            _WORKSPACES[key] = lwork
    call(np.empty(lwork, dtype), lapack.integer(lwork), info)
    if info.value:
        raise np.linalg.LinAlgError(f"{failure} (info = {info.value})")


def _geev(lapack: _Lapack, a: np.ndarray, vectors: bool = False):
    """Eigenvalues, complex, of a square real or complex matrix from
    ``lapack``'s ``dgeev`` or ``zgeev``; with ``vectors``, LAPACK's outputs
    with the left and right eigenvectors: (wr, wi, vl, vr) of a real matrix,
    its vectors packed, and (w, vl, vr) of a complex one.

    The call is the one ``np.linalg.eigvals`` and scipy's ``eig`` and
    ``eigvals`` make, with the optimal workspace, so at an equal BLAS
    thread count the results are their bits. The workspace is queried once
    per library, dtype, size and job (:data:`_WORKSPACES`): every later
    solve of that size is one ``dgeev`` call. It releases the GIL. A
    writable Fortran-ordered float64 or complex128 ``a`` is overwritten;
    any other is copied first.
    """
    a = np.require(a, _lapack_dtype(a), ["F", "W"])
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise np.linalg.LinAlgError(f"a square matrix is required, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    n, integer, job = len(a), lapack.integer, b"V" if vectors else b"N"
    real = a.dtype == np.float64
    vl, vr = (np.empty((n, n) if vectors else (1, 1), a.dtype, order="F") for _ in "lr")
    size, lda, ldv = integer(n), integer(max(n, 1)), integer(max(len(vl), 1))
    w, wi, rwork = np.empty(n, a.dtype), np.empty(n), np.empty(2 * n)

    def call(work, lwork, info):
        if real:
            lapack.dgeev(job, job, size, a, lda, w, wi, vl, ldv, vr, ldv, work, lwork,
                         info, 1, 1)
        else:
            lapack.zgeev(job, job, size, a, lda, w, vl, ldv, vr, ldv, work, lwork,
                         rwork, info, 1, 1)

    _with_workspace(lapack, a.dtype, call,
                    f"eigenvalues did not converge in {'dz'[not real]}geev",
                    (lapack.file, a.dtype.type, n, job))
    if not real:
        return (w, vl, vr) if vectors else w
    return (w, wi, vl, vr) if vectors else w + 1j * wi


def _svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(U, s, Vh) of a real or complex m x n matrix, a = U diag(s) Vh with
    s descending and U, Vh square, as scipy's ``svd`` takes them:
    ``dgesdd`` or ``zgesdd`` with every vector (jobz = 'A') at the optimal
    workspace, on :func:`_scipy_lapack`, of a copy of ``a``."""
    lapack, dtype = _scipy_lapack(), _lapack_dtype(a)
    a = np.array(a, dtype, order="F")
    (m, n), integer = a.shape, lapack.integer
    k = min(m, n)
    s, u, vh = np.empty(k), np.empty((m, m), dtype, "F"), np.empty((n, n), dtype, "F")
    iwork = np.empty(8 * k, np.dtype(integer))
    rwork = np.empty(max(5 * k * k + 5 * k, 2 * max(m, n) * k + 2 * k * k + k, 1))
    head = (b"A", integer(m), integer(n), a, integer(max(m, 1)), s, u, integer(max(m, 1)),
            vh, integer(max(n, 1)))

    def call(work, lwork, info):
        if dtype == np.float64:
            lapack.dgesdd(*head, work, lwork, iwork, info, 1)
        else:
            lapack.zgesdd(*head, work, lwork, rwork, iwork, info, 1)

    _with_workspace(lapack, dtype, call, "SVD did not converge in gesdd")
    return u, s, vh


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of two matrices on the BLAS of :func:`_scipy_lapack`, for the
    dense route, whose eigensolve runs on that library: a dense run touches
    one pool.

    The call is the one scipy's ``gemm`` wrapper makes: ``zgemm`` where
    either operand is complex, else ``dgemm``. A C-ordered operand goes in
    as its Fortran-ordered transpose with the transpose flag set, so it is
    not copied; one in neither order is copied C-ordered first. The result
    is Fortran-ordered.
    """
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"shapes {a.shape} and {b.shape} do not multiply")
    lapack, dtype = _scipy_lapack(), _lapack_dtype(a, b)
    integer = lapack.integer
    operands = []
    for x in (a, b):
        if not (x.flags.f_contiguous or x.flags.c_contiguous):
            x = np.ascontiguousarray(x)
        flag, x = (b"N", x) if x.flags.f_contiguous else (b"T", x.T)
        operands.append((flag, np.asfortranarray(x, dtype)))
    (ta, fa), (tb, fb) = operands
    m, n, k = a.shape[0], b.shape[1], a.shape[1]
    c = np.zeros((m, n), dtype, order="F")
    one, zero = np.ones(1, dtype), np.zeros(1, dtype)
    gemm = lapack.dgemm if dtype == np.float64 else lapack.zgemm
    gemm(ta, tb, integer(m), integer(n), integer(k), one, fa, integer(max(len(fa), 1)),
         fb, integer(max(len(fb), 1)), zero, c, integer(max(m, 1)), 1, 1)
    return c


def _bidiagonal_svd(d: np.ndarray, e: np.ndarray, vectors: bool = False):
    """Singular values, descending, of the n x n upper-bidiagonal B with
    diagonal d and superdiagonal e; with ``vectors``, (U, s, Vt) with
    B = U diag(s) Vt, as ``np.linalg.svd`` returns them. The one place
    that picks the solver, run on one numpy BLAS thread where numpy
    exports its thread control.

    ``np.linalg.svd`` reduces a dense matrix to bidiagonal form by an
    O(n^3) ``dgebrd`` and ends with the bidiagonal stage: ``dlasq1``
    (dqds) for the values alone, ``dbdsdc`` (divide and conquer) for the
    vectors. On a matrix that is bidiagonal already, every reflector of
    the reduction is the identity and d, e pass through it unchanged, so
    where numpy exports both (:func:`_numpy_lapack`) they are called on
    d, e directly, with ``np.linalg.svd``'s bits at an equal BLAS thread
    count. Elsewhere ``np.linalg.svd`` of the dense B.
    """
    d = np.array(d, dtype=np.float64)  # copies: LAPACK overwrites d and e
    e = np.append(np.asarray(e, dtype=np.float64), 0.0)  # dlasq1 reads e as length n
    if d.ndim != 1 or e.shape != d.shape:
        raise ValueError("a diagonal of n and a superdiagonal of n - 1 entries are "
                         f"required, got {d.size} and {e.size - 1}")
    n = len(d)
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    lapack = _numpy_lapack()
    with _one_blas_thread(lapack):
        if lapack is None:
            return np.linalg.svd(np.diag(d) + np.diag(e[:-1], 1), compute_uv=vectors)
        info, size, integers = lapack.integer(), lapack.integer(n), np.dtype(lapack.integer)
        if vectors:
            u, vt = np.zeros((n, n), order="F"), np.zeros((n, n), order="F")
            unused, iunused = np.empty(1), np.empty(1, dtype=integers)
            lapack.dbdsdc(b"U", b"I", size, d, e, u, size, vt, size, unused, iunused,
                          np.empty(3 * n * n + 4 * n), np.empty(8 * n, dtype=integers),
                          info, 1, 1)
        else:
            lapack.dlasq1(size, d, e, np.empty(4 * n), info)
    if info.value:
        raise np.linalg.LinAlgError(
            f"SVD did not converge ({'dbdsdc' if vectors else 'dlasq1'} info = {info.value})")
    return (u, d, vt) if vectors else d


def _mode_amplitudes(spec: ChainSpec) -> np.ndarray:
    """Amplitudes a of a clean chain's 2 x 2 mode problems
    [[i u, a], [a, -i u]]: |v_k| per momentum on a periodic chain, the
    singular values of the L x L hopping block V on an open one.

    V is the n x n bidiagonal block B of ``lattice._open_bidiagonal``
    bordered by alpha - 1 zero rows and columns, so its singular values
    are B's, descending, from :func:`_bidiagonal_svd`, then alpha - 1
    exact zeros. The zeros stay: at u = 0 they are real zero modes, and
    the filling refuses them as it refuses a dense solve's.
    """
    spec.require_translation_invariant("the per-mode kernel")
    if spec.boundary is Boundary.PBC:
        return np.abs(vk(spec, _momenta(spec.cells)))
    return np.concatenate([_bidiagonal_svd(*_open_bidiagonal(spec)),
                           np.zeros(spec.alpha - 1)])


def _levels(a: np.ndarray, u: float) -> np.ndarray:
    """e = sqrt((a - u)(a + u)), the principal root, per mode amplitude a:
    the mode's levels are E = -+e."""
    return np.sqrt(((a - u) * (a + u)).astype(complex))


def _half_filled_energies(a: np.ndarray, u: float, tol_zero: float) -> np.ndarray:
    """e per mode of a clean chain whose lower level alone is filled at half
    filling, 0 for a half-filled pair; E0 = -sum(e).

    With u uniform, H^2 = diag(V V^T - u^2, V^T V - u^2), so every singular
    triple (a, x, y) of the hopping block V spans the 2 x 2 block
    [[i u, a], [a, -i u]] of H on (x, 0), (0, y); a momentum of a periodic
    chain is the same block with a = |v_k|. ``a`` holds every amplitude of
    the chain (:func:`_mode_amplitudes`), an open chain's alpha - 1 zero
    singular values included, so that the filling is decided over all of
    them. Its levels are E = -+e, e = sqrt((a - u)(a + u)), on the
    imaginary axis (Re E = 0 exactly) below a = u. The distance kappa = |e| / max(a, u) from an exceptional
    point is checked first where u > 0 (a Hermitian chain cannot be
    defective); :func:`half_filling_weights` then fills the lower level
    alone where e is real and half of each level of an imaginary pair.
    """
    e = _levels(a, u)
    if u > 0:
        _require_off_exceptional_point(float(np.min(np.abs(e) / np.maximum(a, u))))
    weights = half_filling_weights(np.concatenate([-e, e]), tol_zero)
    filled = weights[: len(a)] != weights[len(a):]
    return np.where(filled, e.real, 0.0)


def ground_state_energy(spec: ChainSpec, tol_zero: float = TOL_ZERO) -> complex:
    """Half-filled ground-state energy sum_n s_n E_n.

    Each route takes the kernel its correlation block takes. Clean chains
    sum the filled levels of :func:`_half_filled_energies` over their mode
    amplitudes (:func:`_mode_amplitudes`): |v_k| per momentum on a periodic
    chain, the singular values of the L x L hopping block on an open one,
    from its bidiagonal block. Disordered chains go through
    :func:`_real_gauge_system` and :func:`half_filling_weights`.
    """
    if not spec.is_translation_invariant:
        E = _real_gauge_system(_gauge_matrix(spec)).energies
        return complex(np.sum(half_filling_weights(E, tol_zero) * E))
    a = _mode_amplitudes(spec)
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
