"""Chain specifications and Hamiltonian constructors.

The model family is a two-band free-fermion chain with balanced on-site
gain/loss ``+iu`` (A sublattice) / ``-iu`` (B sublattice) and real hoppings
whose momentum-space off-diagonal is

    v_k = v exp(-i (alpha-1) k) - w exp(-i alpha k).

``alpha = 1`` is the ordinary gain/loss SSH chain; higher ``alpha`` adds
longer hopping legs while keeping the bulk dispersion
``E_k = +-sqrt(|v_k|^2 - u^2)`` unchanged.

Real-space conventions, fixed here once and consumed by every other module:

* site ordering is cell-major: ``A(1), B(1), A(2), B(2), ...``;
* the diagonal carries ``+i u(x)`` on A and ``-i u(x)`` on B;
* ``v(x)`` couples ``A(i) <-> B(i + alpha - 1)``;
* ``-w`` couples ``A(i) <-> B(i + alpha)`` (the minus sign makes the Bloch
  cross-checks against v_k sign-exact);
* PBC wraps cell indices modulo L, OBC drops out-of-range legs.

Disorder follows the single validated channel: one offset per cell with
``v(x) = v + delta(x)`` and ``u(x) = u - delta(x) - detuning``, which keeps
every cell on its critical line and preserves global PT symmetry.

Both geometries are built once, as the real gauge matrix G = -i S^-1 H S
(:func:`_gauge_matrix`), with S = diag(1, i, 1, i, ...) defined in
:func:`_to_sites`; dense eigensolves take G, the public builders H.
"""

from __future__ import annotations

import enum
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DisorderPresent, SpecTooSmall, UnsupportedCouplings, _caller_stacklevel

#: Width of the band used to call a spec critical, |min_k |v_k|| - u_eff.
TOL_CRIT = 1e-9

#: Default detuning applied when a spec sits on a critical line. Keeps the
#: gap-closing momentum a safe distance from the exceptional point where
#: correlation eigenvalues diverge.
CRITICAL_DETUNING = 1e-12


def _require_integers(spec, *names: str) -> None:
    """A spec's sizes are integers (numpy's included); a bool is not a size."""
    for name in names:
        value = getattr(spec, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_finite(spec, *names: str) -> None:
    """A spec's couplings are finite: NaN or inf would reach LAPACK, whose
    failure then reads as a defective matrix."""
    for name in names:
        value = getattr(spec, name)
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


def _integers(values, what: str) -> list[int]:
    """Sizes and counts handed to a function, as ints: an integer (numpy's
    included) or an integral float is one; a bool, a string and 2.7 are
    refused rather than converted."""
    given = list(values)
    if not all(isinstance(e, numbers.Real) and not isinstance(e, bool)
               and float(e).is_integer() for e in given):
        raise ValueError(f"{what} must be integers, got {given}")
    return [int(e) for e in given]


class Boundary(enum.Enum):
    PBC = "pbc"
    OBC = "obc"


class PTClass(enum.Enum):
    SYMMETRIC = "symmetric"
    CRITICAL = "critical"
    BROKEN = "broken"


@dataclass(frozen=True)
class DisorderProfile:
    """Per-cell offsets delta(x) for the anticorrelated v/u channel."""

    offsets: np.ndarray

    def __post_init__(self):
        arr = np.array(self.offsets, dtype=float, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "offsets", arr)

    def __len__(self) -> int:
        return len(self.offsets)


@dataclass(frozen=True)
class ChainSpec:
    """Complete description of one chain instance.

    Parameters
    ----------
    alpha : int
        Hopping range (>= 1).
    v, w : float
        Intra-type and inter-type coupling amplitudes.
    u : float
        Strength of the imaginary staggered potential, >= 0.
    cells : int
        Number of unit cells L (two sites each).
    boundary : Boundary
        Periodic or open ends.
    disorder : DisorderProfile, optional
        Per-cell offsets; presence disables all momentum-space paths.
    detuning : float, optional
        Amount subtracted from u so that u_eff = u - detuning. ``None``
        resolves to ``CRITICAL_DETUNING``, capped at u, when the clean spec
        sits on a critical line (within ``TOL_CRIT``) and to 0 otherwise.
    """

    alpha: int = 1
    v: float = 1.0
    w: float = 1.0
    u: float = 0.0
    cells: int = 2
    boundary: Boundary = Boundary.PBC
    disorder: DisorderProfile | None = None
    detuning: float | None = field(default=None)

    def __post_init__(self):
        _require_integers(self, "alpha", "cells")
        _require_finite(self, "v", "w", "u")
        if self.alpha < 1:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if self.cells < self.alpha + 1:
            raise SpecTooSmall(
                f"cells={self.cells} cannot host hopping range alpha={self.alpha}; "
                f"need cells >= {self.alpha + 1}"
            )
        if self.u < 0:
            raise ValueError(f"u must be >= 0, got {self.u}")
        if self.detuning is None:
            object.__setattr__(self, "detuning", self._auto_detuning())
        _require_finite(self, "detuning")
        if self.detuning < 0:
            raise ValueError(f"detuning must be >= 0, got {self.detuning}")
        if self.u - self.detuning < 0:
            raise ValueError(
                f"u_eff = u - detuning = {self.u - self.detuning} must be >= 0"
            )
        if self.disorder is not None:
            if len(self.disorder) != self.cells:
                raise ValueError(
                    f"disorder has {len(self.disorder)} offsets for {self.cells} cells"
                )
            bad = np.flatnonzero(~np.isfinite(self.disorder.offsets))
            if len(bad):
                raise ValueError(
                    f"disorder offsets must be finite, got "
                    f"{self.disorder.offsets[bad[0]]} in cell {bad[0]}"
                )
            bound = min(self.v, self.u)
            if np.max(np.abs(self.disorder.offsets)) >= bound:
                raise ValueError(
                    f"disorder offsets must satisfy |delta| < min(v, u) = {bound}"
                )

    def _auto_detuning(self) -> float:
        if self.u <= 0:
            return 0.0
        if abs(min_abs_vk(self) - self.u) <= TOL_CRIT:
            return min(CRITICAL_DETUNING, self.u)  # u_eff never below 0
        return 0.0

    @property
    def u_eff(self) -> float:
        return self.u - self.detuning

    @property
    def n_sites(self) -> int:
        return 2 * self.cells

    @property
    def is_translation_invariant(self) -> bool:
        return self.disorder is None

    def require_translation_invariant(self, what: str) -> None:
        if not self.is_translation_invariant:
            raise DisorderPresent(f"{what} requires a disorder-free chain")


@dataclass(frozen=True)
class InterfaceSpec:
    """Hermitian chain (left) joined to a gain/loss chain (right).

    The left block is an ordinary SSH chain with couplings (v1, w); the
    right block carries (v2, w) plus the staggered +-iu potential. A single
    w bond joins the two blocks and the outer ends are open. The right side
    is normally placed on its topological critical line u = w - v2.
    """

    v1: float
    v2: float
    w: float
    u: float
    cells_left: int = 20
    cells_right: int = 20

    def __post_init__(self):
        _require_integers(self, "cells_left", "cells_right")
        _require_finite(self, "v1", "v2", "w", "u")
        if self.cells_left < 2 or self.cells_right < 2:
            raise SpecTooSmall("interface needs at least 2 cells per side")
        if self.u < 0:
            raise ValueError(f"u must be >= 0, got {self.u}")

    @property
    def cells(self) -> int:
        return self.cells_left + self.cells_right

    @property
    def n_sites(self) -> int:
        return 2 * self.cells


def vk(spec: ChainSpec, k) -> np.ndarray | complex:
    """Off-diagonal Bloch amplitude v_k, vectorized over k."""
    k = np.asarray(k, dtype=float)
    a = spec.alpha
    out = spec.v * np.exp(-1j * (a - 1) * k) - spec.w * np.exp(-1j * a * k)
    return out if out.ndim else complex(out)


def _momenta(cells: int) -> np.ndarray:
    """The momenta 2 pi j / L of a periodic chain in FFT order, folded into
    [-pi, pi): k and -k are exact negatives, so |v_k| = |v_-k| holds to the
    last bit. (2 pi arange(L) / L rounds k and 2 pi - k apart, which breaks
    the conjugate symmetry of the per-momentum blocks.)"""
    return 2.0 * np.pi * np.fft.fftfreq(cells)


def bloch_hamiltonian(spec: ChainSpec, k: float) -> np.ndarray:
    """2x2 momentum-space Hamiltonian [[i u_eff, v_k], [v_k*, -i u_eff]]."""
    spec.require_translation_invariant("bloch_hamiltonian")
    v = vk(spec, k)
    iu = 1j * spec.u_eff
    return np.array([[iu, v], [np.conj(v), -iu]])


def dispersion(spec: ChainSpec, k: float) -> tuple[complex, complex]:
    """Bulk energies (+E_k, -E_k) with E_k the principal square root of
    |v_k|^2 - u_eff^2: real when |v_k| >= u_eff, positive imaginary
    otherwise."""
    spec.require_translation_invariant("dispersion")
    e = np.sqrt(complex(abs(vk(spec, k)) ** 2 - spec.u_eff**2))
    return complex(e), complex(-e)


def min_abs_vk(spec: ChainSpec) -> float:
    """Minimum of |v_k| over the Brillouin zone.

    |v_k|^2 = v^2 + w^2 - 2 v w cos k is monotone in cos k, so the minimum
    sits at cos k = sign(vw): |v - w| for vw > 0, |v + w| for vw <= 0.
    Couplings with v*w <= 0 are outside the validated family and are
    flagged with a warning, not refused.
    """
    if spec.v * spec.w <= 0:
        warnings.warn(
            f"v*w = {spec.v * spec.w} <= 0 lies outside the validated coupling "
            "family; the Brillouin-zone minimum is still exact",
            UnsupportedCouplings,
            stacklevel=_caller_stacklevel(),
        )
        return float(abs(spec.v + spec.w))
    return abs(spec.v - spec.w)


def classify_pt(spec: ChainSpec, tol_crit: float = TOL_CRIT) -> PTClass:
    """PT phase of a clean chain from min_k |v_k| against u_eff."""
    spec.require_translation_invariant("classify_pt")
    gap = min_abs_vk(spec) - spec.u_eff
    if gap > tol_crit:
        return PTClass.SYMMETRIC
    if gap < -tol_crit:
        return PTClass.BROKEN
    return PTClass.CRITICAL


def _cell_couplings(spec: ChainSpec | InterfaceSpec):
    """(first, u(x), legs, periodic): u(x) on the cells from ``first`` on,
    legs (offset, amplitude per cell) coupling A(i) to B(i + offset); the
    interface's u sits on the right cells, its -w leg on B(i) <-> A(i+1)."""
    L = spec.cells
    if isinstance(spec, InterfaceSpec):
        v_x = np.where(np.arange(L) < spec.cells_left, spec.v1, spec.v2)
        u_x = np.full(spec.cells_right, spec.u, dtype=float)
        return spec.cells_left, u_x, ((0, v_x), (-1, np.full(L, -spec.w))), False
    d = np.zeros(L) if spec.disorder is None else spec.disorder.offsets
    legs = ((spec.alpha - 1, spec.v + d), (spec.alpha, np.full(L, -spec.w)))
    return 0, spec.u - d - spec.detuning, legs, spec.boundary is Boundary.PBC


def _hopping_block(spec: ChainSpec | InterfaceSpec) -> np.ndarray:
    """Real L x L block V of the A -> B hoppings, V[i, j] = H[A(i), B(j)];
    open ends drop the legs that leave the chain."""
    _, _, legs, periodic = _cell_couplings(spec)
    i = np.arange(spec.cells)
    V = np.zeros((spec.cells, spec.cells))
    for off, amp in legs:
        keep = periodic | ((i + off >= 0) & (i + off < spec.cells))
        np.add.at(V, (i[keep], (i[keep] + off) % spec.cells), amp[keep])
    return V


def _open_bidiagonal(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and superdiagonal of the n x n upper-bidiagonal block B,
    n = L - alpha + 1, of an open chain's hopping block V (the entries
    :func:`_hopping_block` places): V[i, j + alpha - 1] = B[i, j], and
    V's other alpha - 1 columns (on the left) and rows (at the bottom) are
    zero."""
    _, _, ((_, v), (_, w)), _ = _cell_couplings(spec)
    n = spec.cells - spec.alpha + 1
    return v[:n], w[: n - 1]


def _gauge_matrix(spec: ChainSpec | InterfaceSpec) -> np.ndarray:
    """Real G = -i S^-1 H S, cell-major; by sublattice [[U, V], [-V^T, -U]]
    with U = diag(u(x)). Its zeros are +0.0, as in the gauge of the complex
    H (dgeev's bits follow them), but -U is -0.0 where u(x) = 0: that tells
    :func:`_hamiltonian` such a cell from one without a potential."""
    first, u_x, _, _ = _cell_couplings(spec)
    V = _hopping_block(spec)
    G = np.zeros((2 * spec.cells, 2 * spec.cells))
    d = 2 * np.arange(first, spec.cells)
    G[d, d], G[d + 1, d + 1] = u_x, -u_x
    G[0::2, 1::2] = V
    G[1::2, 0::2] -= V.T
    return G


def _to_sites(X: np.ndarray) -> np.ndarray:
    """S X in place on the rows of X, S = diag(1, i, 1, i, ...) the
    sublattice gauge; returns X. The package's one definition of S."""
    X[1::2] *= 1j
    return X


def _hamiltonian(G: np.ndarray) -> np.ndarray:
    """H = i S G S^-1: i G on the A-A and B-B blocks, G on A -> B, -G on
    B -> A, formed so that the gauge of H is G bit for bit where u(x) != 0."""
    H = np.zeros(G.shape, dtype=complex)
    H[0::2, 0::2] = 1j * G[0::2, 0::2]
    H[1::2, 1::2] = -1j * -G[1::2, 1::2]
    H.real[0::2, 1::2] = G[0::2, 1::2]
    H.real[1::2, 0::2] -= G[1::2, 0::2]
    return H


def build_real_space(spec: ChainSpec) -> np.ndarray:
    """Dense 2L x 2L Hamiltonian in the fixed site convention."""
    return _hamiltonian(_gauge_matrix(spec))


def build_interface(spec: InterfaceSpec) -> np.ndarray:
    """Dense Hamiltonian of the Hermitian / gain-loss interface chain.

    Inside this geometry the inter-cell leg runs ``B(i) <-> A(i+1)``, the
    orientation in which the interface-pinned mode carries Im E in (0, u);
    the bulk-chain convention of :func:`build_real_space` is its mirror
    image and would flip the sign of the bound-state energy.
    """
    return _hamiltonian(_gauge_matrix(spec))
