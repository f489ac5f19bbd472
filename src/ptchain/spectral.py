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

    The eigensolve runs on -i S^-1 H S in the sublattice gauge, real for
    every chain of the family, in :func:`_real_gauge_system`; S is unitary,
    so overlaps are unchanged. A matrix outside the family, whose gauge is
    complex, takes scipy's complex eigensolve of H itself.

    Eigenvalues are ordered deterministically by (Re, Im, input index).
    Nearly degenerate eigenvalues are re-biorthogonalized block-wise via the
    overlap matrix of the unit left and right vectors. Its smallest singular
    value (|<L|R>| for a single eigenvalue) is the distance kappa from an
    exceptional point, checked by :func:`_require_off_exceptional_point`.
    """
    H = np.asarray(H, dtype=complex)
    if not np.all(np.isfinite(H)):
        raise ValueError("Hamiltonian has non-finite entries")
    A = _sublattice_gauge(H)
    if not np.iscomplexobj(A):
        return _real_gauge_system(A, tol_biorth).unpacked()
    E, vl, vr = _scipy_linalg().eig(H, left=True, right=True)
    order = np.lexsort((np.arange(len(E)), E.imag, E.real))
    E, R, L = E[order], vr[:, order], vl[:, order]

    kappa = 1.0
    for lo, hi in _cluster_blocks(E, _CLUSTER_REL * max(np.max(np.abs(E)), 1.0)):
        block, sv_min = _rebiorthogonalize(L[:, lo:hi], R[:, lo:hi])
        kappa = min(kappa, _require_off_exceptional_point(sv_min))
        L[:, lo:hi] = block
    gram = _gemm(L.conj().T, R)
    residual = float(np.max(np.abs(gram - np.eye(len(E)))))
    _require_biorthogonal(residual, kappa, tol_biorth, H)
    return BiorthogonalSystem(E, R, L, residual)


def _rebiorthogonalize(L: np.ndarray, R: np.ndarray) -> tuple[np.ndarray | None, float]:
    """L inv(M)^dag with M = L^dag R, so that L^dag R = I on a cluster (one
    mode, or nearly degenerate ones), and kappa, the smallest singular value
    of M; None in place of the block where kappa is below ``_KAPPA_EP``."""
    sla = _scipy_linalg()
    M = L.conj().T @ R
    sv_min = float(sla.svdvals(M)[-1])
    if not sv_min >= _KAPPA_EP:
        return None, sv_min
    return L @ sla.inv(M).conj().T, sv_min


def _require_biorthogonal(residual: float, kappa: float, tol_biorth: float,
                          A: np.ndarray) -> None:
    """:class:`DefectiveMatrix` when the Gram residual exceeds ``tol_biorth``.

    The message gives kappa and the block error it predicts,
    eps ||A||_1 / kappa^2 for the matrix A that was solved: the gauge
    matrix on the real path, H on the complex path (README, "Numerical
    tolerances"). The norm is taken only here, when the check fails.
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
    """Biorthonormal eigensystem of a real gauge matrix A = -i S^-1 H S, in
    LAPACK's packed real form.

    Column j of ``vl`` and ``vr`` holds the real eigenvectors of a real
    eigenvalue lam[j]. A conjugate pair lam[j] = conj(lam[j + 1]), Im > 0
    first, keeps its vectors as real and imaginary parts in columns j and
    j + 1: l = vl[:, j] + i vl[:, j + 1], r likewise, and the partner's
    vectors are their conjugates. ``vl`` is normalized so that the complex
    vectors satisfy L^dag R = I to within ``residual``. ``order`` sorts the
    energies E = i lam by (Re, Im, index).
    """

    wr: np.ndarray  # lam = wr + i wi
    wi: np.ndarray
    vl: np.ndarray
    vr: np.ndarray
    pairs: np.ndarray  # first column j of every conjugate pair
    order: np.ndarray
    residual: float

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
        the occupancies ``weights`` of :attr:`energies`.

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
    """Biorthonormal eigensystem of a real gauge matrix in LAPACK's packed
    real form (:class:`_PackedSystem`), normalized in real arithmetic.

    One ``dgeev`` with both vector sets. The complex vectors are the packed
    ones times U = 1 on a real column and [[1, 1], [i, -i]] on a pair, and
    U U^dag = 1 and 2 there: L^dag R = I is the real rule vl^T vr = D, D = 1
    on a real column and 1/2 on each column of a pair. A mode's columns Q
    take vl_Q <- vl_Q T_Q^-T D, T_Q = vl_Q^T vr_Q, and its kappa is
    sigma_min(D^-1/2 T_Q D^-1/2) of LAPACK's unit vectors, that of the
    complex overlap. A cluster of nearly degenerate modes takes as Q its
    real columns and both columns of every pair it touches, shared with its
    mirror E <-> -E^*. A single mode takes the closed forms: l <- l / (l.r)
    and kappa = |l.r| on a real column; [a b] <- [a b] K with
    K^T [[a.x, a.y], [b.x, b.y]] = I / 2 and kappa = |l^dag r| on a pair.
    The pair's rule holds l^dag conj(r) = 0 too, which exact eigenvectors
    meet already; enforcing it keeps the partner overlap, of size
    eps |l| |r|, out of the residual: near an exceptional point it alone
    reached 1.16e-9 (v = 2, w = 1, u = 1, 40 periodic cells, default
    detuning), where every other entry stays at 6.4e-10.

    Every kappa is taken from LAPACK's vectors, and the first below
    ``_KAPPA_EP`` in (Re, Im) order raises. The residual covers every entry
    of the complex Gram matrix, from one real product T = vl^T vr
    (:func:`_packed_gram_residual`).
    """
    sla = _scipy_linalg()
    n = len(A)
    work, _ = sla.lapack.dgeev_lwork(n)
    wr, wi, vl, vr, info = sla.lapack.dgeev(A, lwork=int(work))
    if info > 0:
        raise sla.LinAlgError(
            "eig algorithm (geev) did not converge (only eigenvalues "
            f"with order >= {info} have converged)"
        )
    # E = i lam = -wi + i wr, in (Re, Im, index) order
    order = np.lexsort((np.arange(n), wr, -wi))
    pairs = np.flatnonzero(wi > 0)
    partner = np.arange(n) + np.sign(wi).astype(int)  # the other column of a pair
    half = np.where(wi == 0, 1.0, 0.5)  # D of the rule vl^T vr = D

    # per column c, vl[:, c] . vr[:, c]; per pair, the cross products a.y, b.x
    dot = np.einsum("ij,ij->j", vl, vr)
    xy = np.einsum("ij,ij->j", vl[:, pairs], vr[:, pairs + 1])
    yx = np.einsum("ij,ij->j", vl[:, pairs + 1], vr[:, pairs])
    kappas = np.abs(dot)  # per column; a pair's two columns share kappa = |d|
    kappas[pairs] = kappas[pairs + 1] = np.hypot(dot[pairs] + dot[pairs + 1], xy - yx)

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
        T = _gemm(vl[:, Q].T, vr[:, Q])
        w = 1.0 / np.sqrt(half[Q])
        kappas[Q] = sla.svdvals(w[:, None] * T * w)[-1]
        single[Q] = False
        if kappas[Q[0]] >= _KAPPA_EP:
            vl[:, Q] = _gemm(vl[:, Q], sla.inv(T).T * half[Q])
    bad = np.flatnonzero(~(kappas[order] >= _KAPPA_EP))
    if len(bad):
        _require_off_exceptional_point(kappas[order[bad[0]]])
    kappa = min(1.0, float(np.min(kappas)))

    real = np.flatnonzero(single & (wi == 0))
    vl[:, real] /= dot[real]
    own = single[pairs]
    p = pairs[own]
    # [a b] <- [a b] K with K^T [[a.x, a.y], [b.x, b.y]] = I / 2
    txx, tyy, txy, tyx = dot[p], dot[p + 1], xy[own], yx[own]
    det2 = 2.0 * (txx * tyy - txy * tyx)
    a, b = vl[:, p], vl[:, p + 1]
    vl[:, p], vl[:, p + 1] = (a * tyy - b * txy) / det2, (b * txx - a * tyx) / det2

    residual = _packed_gram_residual(_gemm(vl.T, vr), pairs)
    _require_biorthogonal(residual, kappa, tol_biorth, A)
    return _PackedSystem(wr, wi, vl, vr, pairs, order, residual)


def _packed_gram_residual(T: np.ndarray, pairs: np.ndarray) -> float:
    """max |L^dag R - I| over every entry of the complex Gram matrix, from
    T = vl^T vr of the packed vectors (``pairs``: first column of each pair).

    Each entry is a +- combination of four entries of T: for pair rows
    j, j + 1 (l = a + ib) and pair columns k, k + 1 (r = x + iy),
    l_j^dag r_k = (a.x + b.y) + i (a.y - b.x) and
    l_j^dag r_(k+1) = (a.x - b.y) - i (a.y + b.x). Row j + 1 is row j
    conjugated with every pair's two columns swapped, so it has the same
    moduli and is skipped.
    """
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
    tol; E complex, or its (Re, Im) rows as a real array."""
    step = np.diff(E)
    gaps = np.abs(step) if np.iscomplexobj(step) else np.hypot(*step)
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


@functools.cache
def _scipy_linalg():
    """``scipy.linalg``, imported on the dense route's first call.

    numpy has no eigensolver with left eigenvectors, so the dense route
    runs on scipy's ``dgeev``, and its products and factorizations on
    scipy's BLAS beside it: one OpenBLAS pool per run. Clean chains run
    on ``numpy.linalg`` alone and never import scipy, which is most of a
    CLI process's start-up.
    """
    import scipy.linalg

    return scipy.linalg


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b of two matrices on scipy's BLAS, for the dense route, whose
    eigensolve runs on scipy's LAPACK: a dense run touches one pool.

    A C-ordered operand goes in as its Fortran-ordered transpose with the
    transpose flag set, so neither is copied. The result is Fortran-ordered.
    """
    gemm = _scipy_linalg().blas.get_blas_funcs("gemm", (a, b))
    fa, fb = a.flags.f_contiguous, b.flags.f_contiguous
    return gemm(1.0, a if fa else a.T, b if fb else b.T,
                trans_a=0 if fa else 1, trans_b=0 if fb else 1)


@functools.cache
def _blas_thread_control():
    """(get, set) thread-count functions of scipy's bundled OpenBLAS, or
    None where scipy's BLAS does not export both.

    Looked up on the handle of scipy's BLAS extension, whose dependencies
    dlsym searches, so the pool reached is the one the dense route runs
    on: :func:`_gemm` and its factorizations. The clean routes run on
    numpy's pool, which this does not reach; :func:`_numpy_lapack` holds
    its control.
    """
    import ctypes

    try:
        lib = ctypes.CDLL(_scipy_linalg()._fblas.__file__)
        return lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    except (AttributeError, OSError):
        return None


def _set_blas_threads(n: int) -> int | None:
    """Run scipy's BLAS on n threads; the previous count, or None (and
    nothing pinned) where scipy's BLAS has no thread control."""
    control = _blas_thread_control()
    if control is None:
        return None
    get, set_ = control
    previous = int(get())
    set_(n)
    return previous


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _NumpyLapack(NamedTuple):
    """ctypes functions of the LAPACK and OpenBLAS that ``numpy.linalg``
    links."""

    dgeev: Callable
    dlasq1: Callable
    dbdsdc: Callable
    get_threads: Callable[[], int]
    set_threads: Callable[[int], None]


@functools.cache
def _numpy_lapack() -> _NumpyLapack | None:
    """``dgeev``, ``dlasq1``, ``dbdsdc`` and the thread-count functions of
    numpy's LAPACK and OpenBLAS, or None where they are not exported under
    the names of numpy's wheels (scipy-openblas64: 64-bit integers,
    ``scipy_`` prefix).

    Looked up on the handle of ``numpy.linalg._umath_linalg``, whose
    dependencies dlsym searches, as :func:`_blas_thread_control` does for
    scipy: the library and pool are those of the clean routes. A ctypes call
    releases the GIL, which ``np.linalg.eigvals`` and scipy's wrappers
    hold, so solves on several threads run at once.
    """
    import ctypes

    try:
        from numpy.linalg import _umath_linalg

        lib = ctypes.CDLL(_umath_linalg.__file__)
        lapack = _NumpyLapack(lib.scipy_dgeev_64_, lib.scipy_dlasq1_64_,
                              lib.scipy_dbdsdc_64_,
                              lib.scipy_openblas_get_num_threads64_,
                              lib.scipy_openblas_set_num_threads64_)
    except (AttributeError, ImportError, OSError):
        return None
    n = ctypes.POINTER(ctypes.c_int64)
    a = np.ctypeslib.ndpointer(np.float64, flags="F_CONTIGUOUS")
    ia = np.ctypeslib.ndpointer(np.int64, flags="F_CONTIGUOUS")
    chars = [ctypes.c_size_t, ctypes.c_size_t]  # the lengths of two strings
    # jobvl, jobvr, n, a, lda, wr, wi, vl, ldvl, vr, ldvr, work, lwork, info
    lapack.dgeev.argtypes = [ctypes.c_char_p, ctypes.c_char_p, n, a, n, a, a,
                             a, n, a, n, a, n, n, *chars]
    # n, d, e, work, info
    lapack.dlasq1.argtypes = [n, a, a, a, n]
    # uplo, compq, n, d, e, u, ldu, vt, ldvt, q, iq, work, iwork, info
    lapack.dbdsdc.argtypes = [ctypes.c_char_p, ctypes.c_char_p, n, a, a, a, n,
                              a, n, a, ia, a, ia, n, *chars]
    lapack.dgeev.restype = lapack.dlasq1.restype = lapack.dbdsdc.restype = None
    lapack.get_threads.argtypes, lapack.get_threads.restype = [], ctypes.c_int
    lapack.set_threads.argtypes, lapack.set_threads.restype = [ctypes.c_int], None
    return lapack


def _dgeev_eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real square matrix, complex, from the ``dgeev`` of
    :func:`_numpy_lapack` without the GIL.

    The call is the one ``np.linalg.eigvals`` makes (no vectors, the
    optimal workspace from a query), so at an equal BLAS thread count the
    eigenvalues are its bits, in its order. A writable Fortran-ordered
    float64 ``a`` is overwritten; any other is copied first.
    """
    import ctypes

    a = np.require(a, np.float64, ["F", "W"])
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise np.linalg.LinAlgError(f"a square matrix is required, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    dgeev = _numpy_lapack().dgeev
    n, lda = ctypes.c_int64(len(a)), ctypes.c_int64(max(len(a), 1))
    info, one = ctypes.c_int64(), ctypes.c_int64(1)
    wr, wi, unused = np.empty(len(a)), np.empty(len(a)), np.empty(1)

    def call(work: np.ndarray, lwork: int) -> None:
        dgeev(b"N", b"N", n, a, lda, wr, wi, unused, one, unused, one, work,
              ctypes.c_int64(lwork), info, 1, 1)
        if info.value:
            raise np.linalg.LinAlgError(
                f"Eigenvalues did not converge (dgeev info = {info.value})")

    query = np.empty(1)
    call(query, -1)  # the optimal workspace, as np.linalg.eigvals takes it
    work = np.empty(max(int(query[0]), 1))
    call(work, len(work))
    return wr + 1j * wi


@contextlib.contextmanager
def _one_blas_thread(lapack: _NumpyLapack | None):
    """numpy's OpenBLAS on one thread inside the block and the caller's
    count restored after it, also when the block raises; nothing is pinned
    where ``lapack`` is None. At one thread numpy's products and LAPACK
    calls round the same whatever the caller's count."""
    if lapack is None:
        yield
        return
    previous = lapack.get_threads()
    lapack.set_threads(1)
    try:
        yield
    finally:
        lapack.set_threads(previous)


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
    import ctypes

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
        info, size = ctypes.c_int64(), ctypes.c_int64(n)
        if vectors:
            u, vt = np.zeros((n, n), order="F"), np.zeros((n, n), order="F")
            unused, iunused = np.empty(1), np.empty(1, dtype=np.int64)
            lapack.dbdsdc(b"U", b"I", size, d, e, u, size, vt, size, unused, iunused,
                          np.empty(3 * n * n + 4 * n), np.empty(8 * n, dtype=np.int64),
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
