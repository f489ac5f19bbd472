"""Reference builders.

Verbatim copies of the complex builders that ``ptchain.lattice`` used
before every Hamiltonian was built from the real gauge matrix: the chain
assembled from its hopping block, the interface a per-cell loop.
``test_gauge`` requires byte-identical matrices (signed zeros included)
from both, and the gauge matrix byte-identical to the gauge of these.

``toeplitz_correlation`` is the index-array k-space block that
``ptchain.entanglement`` formed at the largest size before it took each
size's halves from strided views; ``test_entanglement`` requires the same
bytes from the views.
"""

from __future__ import annotations

import numpy as np

from ptchain.lattice import Boundary, ChainSpec, InterfaceSpec


def _cell_couplings(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    L = spec.cells
    if spec.disorder is None:
        return (np.full(L, spec.v), np.full(L, spec.u_eff))
    d = spec.disorder.offsets
    return (spec.v + d, spec.u - d - spec.detuning)


def _hopping_block(spec: ChainSpec) -> np.ndarray:
    L = spec.cells
    v_x, _ = _cell_couplings(spec)
    i = np.arange(L)
    V = np.zeros((L, L))
    for off, amp in ((spec.alpha - 1, v_x), (spec.alpha, np.full(L, -spec.w))):
        j = i + off
        keep = slice(None) if spec.boundary is Boundary.PBC else j < L
        np.add.at(V, (i[keep], j[keep] % L), amp[keep])
    return V


def build_real_space(spec: ChainSpec) -> np.ndarray:
    L = spec.cells
    _, u_x = _cell_couplings(spec)
    V = _hopping_block(spec)
    H = np.zeros((2 * L, 2 * L), dtype=complex)
    H[0::2, 0::2][np.diag_indices(L)] = 1j * u_x
    H[1::2, 1::2][np.diag_indices(L)] = -1j * u_x
    H[0::2, 1::2] = V
    H[1::2, 0::2] = V.T
    return H


def build_interface(spec: InterfaceSpec) -> np.ndarray:
    L = spec.cells
    H = np.zeros((2 * L, 2 * L), dtype=complex)
    for i in range(L):
        on_right = i >= spec.cells_left
        vi = spec.v2 if on_right else spec.v1
        H[2 * i, 2 * i + 1] += vi
        H[2 * i + 1, 2 * i] += vi
        if on_right:
            H[2 * i, 2 * i] = 1j * spec.u
            H[2 * i + 1, 2 * i + 1] = -1j * spec.u
        if i + 1 < L:
            H[2 * i + 1, 2 * i + 2] += -spec.w
            H[2 * i + 2, 2 * i + 1] += -spec.w
    return H


def toeplitz_correlation(g: np.ndarray, ell: int, L: int) -> np.ndarray:
    n = np.arange(ell)
    idx = (n[:, None] - n[None, :]) % L
    C = np.empty((2 * ell, 2 * ell), dtype=g.dtype)
    for a in range(2):
        for b in range(2):
            C[a::2, b::2] = g[a, b, idx]
    return C
