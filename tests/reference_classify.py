"""Reference partner matcher for the spectrum classification.

A verbatim copy of the numpy matcher that ``ptchain.entanglement`` used
before its bisect-window lookup: every lookup scans all free modes with
``np.isin`` exclusion. ``test_entanglement`` requires identical labels,
groups, edge-pair imaginary parts and quartet parameters from both.
"""

from __future__ import annotations

import numpy as np

from ptchain.entanglement import (
    DEFAULT_TOLERANCES,
    EntanglementSpectrum,
    ModeGroup,
    ModeLabel,
    ToleranceSet,
    _quartet_params,
)


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
