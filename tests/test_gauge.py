"""Cross-path properties of the real sublattice gauge.

Every dense eigensolve runs on real matrices in the gauge
S = diag(1, i, 1, i, ...). Over the chain family (alpha, v, w, u, L,
boundary, detuning, disorder) these properties check that the real route
agrees with the complex one, that the dense and momentum-space correlation
routes agree, that both agree with the Fock-space oracle on small chains,
that the imaginary entropy stays quantized, and that the degenerate +-iu
edge blocks of alpha >= 2 open chains are re-biorthogonalized jointly.

Clean chains take one per-mode kernel for the ground-state energy and the
subsystem correlation block, with the singular values of the L x L
hopping block as mode amplitudes on open chains and |v_k| on periodic
ones; both must agree with the dense route in value and in the error they
raise.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ptchain as pc
import ptchain.entanglement as entanglement
import ptchain.spectral as spectral
from ptchain.entanglement import _gauge_real, _subsystem_correlation
from ptchain.errors import AmbiguousFilling, DefectiveMatrix
from ptchain.spectral import (
    _CLUSTER_REL,
    TOL_BIORTH,
    _cluster_blocks,
    _sublattice_gauge,
)

from fock_oracle import (
    biorthogonal_ground_pair,
    correlation_from_states,
    entropy_from_rho,
    reduced_density_matrix,
)

BC = pc.Prescription.BRANCH_CUT
REG = pc.Prescription.REGULARIZED
PROPERTY = settings(max_examples=40)


@st.composite
def chains(draw, max_cells=40, clean=None, min_detuning=1e-10, min_u=0.1):
    """Chains of the family in all three PT classes.

    Critical chains sit on u = |v - w| with an explicit detuning. PT-symmetric
    chains lie inside the gap, by default with u >= 0.1 |v - w| so that open
    chains have no real zero modes. PT-broken chains take
    |v - w| < u < v + w (partly broken) or u > v + w (every mode on the
    imaginary axis). Disorder is drawn only on the validated channel, the
    critical line with v < w. ``clean`` fixes the boundary and draws no
    disorder.
    """
    alpha = draw(st.sampled_from([1, 2, 3]))
    v = draw(st.floats(0.2, 3.0))
    w = draw(st.floats(0.2, 3.0))
    gap = abs(v - w)
    assume(gap >= 0.2)
    critical = draw(st.booleans())
    detuning = 0.0
    if critical:
        u = gap
        detuning = draw(st.sampled_from([d for d in (1e-10, 1e-6, 1e-3)
                                         if d >= min_detuning]))
    else:
        phase = draw(st.sampled_from(["symmetric", "broken", "fully broken"]))
        if phase == "symmetric":
            u = draw(st.floats(min_u, 0.9)) * gap
        elif phase == "broken":
            u = gap + draw(st.floats(0.1, 0.9)) * (v + w - gap)
        else:
            u = (v + w) * draw(st.floats(1.1, 2.0))
    cells = draw(st.integers(alpha + 1, max_cells))
    if clean is not None:
        return pc.ChainSpec(alpha=alpha, v=v, w=w, u=u, cells=cells,
                            boundary=clean, detuning=detuning)
    boundary = draw(st.sampled_from([pc.Boundary.PBC, pc.Boundary.OBC]))
    disorder = None
    if critical and v < w and draw(st.booleans()):
        offsets = draw(st.lists(st.floats(-0.9, 0.9), min_size=cells,
                                max_size=cells))
        disorder = pc.DisorderProfile(np.asarray(offsets) * min(v, u))
    return pc.ChainSpec(alpha=alpha, v=v, w=w, u=u, cells=cells,
                        boundary=boundary, detuning=detuning, disorder=disorder)


def dense_correlation(spec, tol_zero=pc.spectral.TOL_ZERO):
    system = pc.biorthogonal_diagonalize(pc.build_real_space(spec))
    return pc.occupied_correlation(system, pc.select_half_filling(system, tol_zero))


def gauge_block(C):
    """M = -2i S^-1 (C - 1/2) S, real, so that nu = 1/2 + (i/2) eig(M)."""
    return 2.0 * _gauge_real(_sublattice_gauge(C - 0.5 * np.eye(len(C))))


def match_distance(a, b):
    """Largest distance from an element of a to its nearest element of b."""
    return float(np.max(np.min(np.abs(a[:, None] - b[None, :]), axis=1)))


@PROPERTY
@given(chains())
def test_gauge_eigenvalues_match_complex_solve(spec):
    C = dense_correlation(spec)
    M = gauge_block(C)
    assert M.dtype == np.float64
    scale = float(np.max(np.abs(C)))
    for ell in sorted({1, spec.cells // 2, spec.cells} - {0}):
        n = 2 * ell
        real_route = 0.5 + 0.5j * np.linalg.eigvals(M[:n, :n])
        complex_route = np.linalg.eigvals(C[:n, :n])
        assert match_distance(real_route, complex_route) <= 1e-8 * scale
        assert match_distance(complex_route, real_route) <= 1e-8 * scale


def test_gauge_residue_beyond_tolerance_is_defective():
    M = np.array([[1.0, 2.0 + 1e-12j], [-2.0, -1.0]])
    assert _gauge_real(M).dtype == np.float64
    M[0, 1] += 1e-6j
    with pytest.raises(DefectiveMatrix, match="increase the detuning"):
        _gauge_real(M)


def test_vanishing_gauge_block_is_not_defective():
    # C = 1/2 up to rounding: the residue is measured against 1, not max |M|
    M = np.array([[1e-17 + 1e-17j, 0.0], [0.0, -1e-17j]])
    assert _gauge_real(M).dtype == np.float64


@pytest.mark.parametrize("boundary", [pc.Boundary.OBC, pc.Boundary.PBC])
@pytest.mark.parametrize("alpha", [1, 2, 3])
def test_fully_broken_chain_half_fills_every_mode(alpha, boundary):
    # u > v + w: every mode is half filled, so C = 1/2 and each of the
    # 2 ell subsystem modes carries ln 2, on the dense and k-space routes
    spec = pc.ChainSpec(alpha=alpha, v=1, w=2, u=4, cells=12, boundary=boundary)
    for prescription in (BC, REG):
        prof = pc.entropy_profile(spec, [1, 4, 6], prescription)
        np.testing.assert_allclose(prof.values, 2 * prof.ells * np.log(2),
                                   rtol=0, atol=1e-9)


@PROPERTY
@given(chains(clean=pc.Boundary.PBC, min_detuning=1e-3))
def test_dense_correlation_matches_k_space(spec):
    C = dense_correlation(spec)
    fast = pc.correlation_k_space(spec, spec.cells).matrix
    assert np.max(np.abs(fast - C)) <= 1e-8 * float(np.max(np.abs(C)))


@settings(max_examples=60)
@given(chains(max_cells=4, min_detuning=1e-3, min_u=0.0))
def test_fock_oracle_matches_gauge_route(spec):
    # the oracle builds the many-body state by filling Re E < 0 modes, so it
    # needs a spectrum without modes on the imaginary axis
    h = pc.build_real_space(spec)
    energies = np.linalg.eigvals(h)
    assume(np.min(np.abs(energies.real)) > 1e-3)
    n = spec.n_sites
    gr, gl = biorthogonal_ground_pair(h)
    oracle = correlation_from_states(gr, gl, n)
    C = dense_correlation(spec)
    scale = max(float(np.max(np.abs(C))), 1.0)
    assert np.max(np.abs(C - oracle)) < 1e-10 * scale
    M = gauge_block(C)
    ells = range(1, spec.cells + 1)
    prof = pc.entropy_profile(spec, ells, pc.Prescription.PRINCIPAL)
    for ell, value in zip(prof.ells, prof.values):
        k = 2 * ell
        nu = np.linalg.eigvals(oracle[:k, :k])
        assert match_distance(0.5 + 0.5j * np.linalg.eigvals(M[:k, :k]), nu) < 1e-8 * scale
        if np.all(np.abs(nu.imag) < 1e-9) and np.all(np.abs(nu.real - 0.5) < 0.5):
            # a spectrum inside (0, 1) leaves no branch choice in either entropy
            s_oracle = entropy_from_rho(reduced_density_matrix(gr, gl, n, k))
            assert abs(value - s_oracle) < 1e-10 * scale


@PROPERTY
@given(chains())
def test_imaginary_entropy_counts_edge_pairs(spec):
    ells = sorted({1, spec.cells // 3, spec.cells // 2} - {0})
    reg = pc.entropy_profile(spec, ells, REG)
    if spec.is_translation_invariant and spec.boundary is pc.Boundary.PBC:
        bc = pc.entropy_profile(spec, ells, BC)
        np.testing.assert_allclose(bc.values.imag, -np.pi * bc.n_edge_pairs,
                                   rtol=0, atol=1e-9)
        np.testing.assert_allclose(reg.values.imag, bc.values.imag,
                                   rtol=0, atol=1e-9)
        np.testing.assert_array_equal(reg.n_edge_pairs, bc.n_edge_pairs)
    else:
        # only the particle-hole pairing survives: each self-paired mode at
        # Re nu = 1/2 carries -i pi/2, and nothing else is imaginary
        halves = reg.values.imag / (-np.pi / 2.0)
        np.testing.assert_allclose(halves, np.round(halves), rtol=0, atol=1e-9)
        assert np.all(np.round(halves) >= 2 * reg.n_edge_pairs)


@PROPERTY
@given(
    alpha=st.sampled_from([2, 3]),
    v=st.floats(0.2, 1.5),
    ratio=st.floats(2.0, 4.0),
    cells=st.integers(20, 40),
    detuning=st.sampled_from([0.0, 1e-10, 1e-6]),
)
def test_degenerate_edge_blocks_rebiorthogonalized(alpha, v, ratio, cells, detuning):
    w = ratio * v
    spec = pc.ChainSpec(alpha=alpha, v=v, w=w, u=w - v, cells=cells,
                        boundary=pc.Boundary.OBC, detuning=detuning)
    system = pc.biorthogonal_diagonalize(pc.build_real_space(spec))
    assert system.biorth_residual < TOL_BIORTH
    E = system.energies
    scale = max(float(np.max(np.abs(E))), 1.0)
    edge_blocks = [
        (lo, hi) for lo, hi in _cluster_blocks(E, _CLUSTER_REL * scale)
        if abs(abs(E[lo].imag) - spec.u_eff) < 1e-6 and E[lo].real == 0.0
    ]
    # alpha edge modes at each of +-i u_eff, split by less than the cluster
    # width at these sizes: one joint block per sign
    assert sorted(hi - lo for lo, hi in edge_blocks) == [alpha, alpha]
    for lo, hi in edge_blocks:
        gram = system.left_vectors[:, lo:hi].conj().T @ system.right_vectors[:, lo:hi]
        assert np.max(np.abs(gram - np.eye(hi - lo))) < TOL_BIORTH


# ---------------------------------------------------------------------------
# Singular-mode route for clean open chains
# ---------------------------------------------------------------------------

PRESCRIPTIONS = list(pc.Prescription)


def dense_energy(spec, tol_zero=pc.spectral.TOL_ZERO):
    """E0 the library takes on a disordered chain: the biorthogonal system of
    the 2L x 2L Hamiltonian at half filling."""
    system = pc.biorthogonal_diagonalize(pc.build_real_space(spec))
    occ = pc.select_half_filling(system, tol_zero)
    return complex(np.sum(occ.weights * system.energies))


def dense_entropy(spec, ell, prescription):
    M = gauge_block(dense_correlation(spec))[: 2 * ell, : 2 * ell]
    nus = 0.5 + 0.5j * np.linalg.eigvals(M)
    return pc.entropy(pc.classify_spectrum(nus), prescription).value


def outcome(f, *args):
    """f(*args), or the class of the package error it raises."""
    try:
        return f(*args)
    except pc.errors.PTChainError as exc:
        return type(exc)


def assert_block_like_dense(fast, dense):
    """Outcomes of _subsystem_correlation and dense_correlation on one chain
    hold the same block or the same error class."""
    if isinstance(fast, type) or isinstance(dense, type):
        assert fast is dense
    else:
        C = dense
        assert np.max(np.abs(fast[0] - gauge_block(C))) <= 1e-10 * np.max(np.abs(C))


CLEAN_CHAINS = st.sampled_from([pc.Boundary.PBC, pc.Boundary.OBC]).flatmap(
    lambda boundary: chains(clean=boundary))


@PROPERTY
@given(CLEAN_CHAINS)
def test_singular_energy_matches_dense(spec):
    fast, dense = pc.ground_state_energy(spec), dense_energy(spec)
    assert abs(fast - dense) <= 1e-10 * max(abs(dense), 1.0)


@PROPERTY
@given(chains(clean=pc.Boundary.OBC))
def test_singular_block_matches_dense(spec):
    C = dense_correlation(spec)
    M, route = _subsystem_correlation(spec, spec.cells)
    assert route == "singular_mode"
    assert M.dtype == np.float64
    scale = float(np.max(np.abs(C)))
    assert np.max(np.abs(M - gauge_block(C))) <= 1e-10 * scale
    for ell in sorted({1, spec.cells // 2} - {0}):
        lead, _ = _subsystem_correlation(spec, ell)
        np.testing.assert_allclose(lead, M[: 2 * ell, : 2 * ell], rtol=0,
                                   atol=1e-13 * scale)


@PROPERTY
@given(chains(clean=pc.Boundary.OBC))
def test_singular_entropies_match_dense(spec):
    ells = sorted({1, spec.cells // 3, spec.cells // 2} - {0})
    for prescription in PRESCRIPTIONS:
        fast = outcome(pc.entropy_profile, spec, ells, prescription)
        for col, ell in enumerate(ells):
            dense = outcome(dense_entropy, spec, ell, prescription)
            if isinstance(fast, type):
                assert dense is fast
            else:
                assert abs(fast.values[col] - dense) <= 1e-8


def energy_cases():
    """(v, w, u, boundary); a periodic case's id ends in -pbc."""
    cases = [
        (1.0, 0.0, 1.0),   # dimers: every amplitude equals u
        (0.0, 1.3, 1.3),   # every amplitude but the open chain's zero mode equals u
        (1.0, 3.0, 0.0),   # Hermitian and topological: real zero modes
        (3.0, 1.0, 0.0),   # Hermitian
        (1.0, 1.2, 0.0),   # Hermitian, zero modes split by the short chain
        (1.0, 2.0, 1.0),   # exactly critical: |v_k| = u at the gap-closing k
    ]
    for boundary, suffix in ((pc.Boundary.OBC, ""), (pc.Boundary.PBC, "-pbc")):
        for v, w, u in cases:
            yield pytest.param(v, w, u, boundary, id=f"{v}-{w}-{u}{suffix}")


@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("v, w, u, boundary", energy_cases())
def test_singular_energy_raises_like_dense(alpha, v, w, u, boundary):
    # the mode amplitudes are the singular values of the hopping block on
    # an open chain and |v_k| on a periodic one. E0 and the correlation
    # block take the same value or raise the same error on both routes.
    spec = pc.ChainSpec(alpha=alpha, v=v, w=w, u=u, cells=24,
                        boundary=boundary, detuning=0.0)
    for tol_zero in (1e-8, 1e-2):
        fast = outcome(pc.ground_state_energy, spec, tol_zero)
        dense = outcome(dense_energy, spec, tol_zero)
        if isinstance(dense, type):
            assert fast is dense
        else:
            assert abs(fast - dense) <= 1e-10 * max(abs(dense), 1.0)
        assert_block_like_dense(outcome(_subsystem_correlation, spec, 24, tol_zero),
                                outcome(dense_correlation, spec, tol_zero))


def leading_block(spec, tol_zero):
    return _subsystem_correlation(spec, 8, tol_zero)


@pytest.mark.parametrize("call", [pc.ground_state_energy, leading_block],
                         ids=["energy", "block"])
def test_wide_tol_zero_makes_filling_ambiguous_on_every_route(call):
    # the smallest |E| of this near-critical chain is ~1.4e-3, inside
    # tol_zero = 1e-2; the twin with zero offsets takes the dense route
    clean = pc.ChainSpec(v=1.0, w=2.0, u=1.0, cells=64, boundary=pc.Boundary.PBC,
                         detuning=1e-6)
    twin = pc.ChainSpec(v=1.0, w=2.0, u=1.0, cells=64, boundary=pc.Boundary.PBC,
                        detuning=1e-6, disorder=pc.DisorderProfile(np.zeros(64)))
    for spec in (clean, twin):
        with pytest.raises(AmbiguousFilling):
            call(spec, 1e-2)


@pytest.mark.parametrize("alpha", [1, 2, 3])
@pytest.mark.parametrize("v, w, u", [(1.0, 0.0, 1.0), (0.7, 0.0, 0.7)])
def test_exceptional_point_is_defective(alpha, v, w, u):
    # w = 0 with u = v puts every bulk singular value, and every |v_k| of
    # the periodic chain, exactly on u_eff. Every route, the dense one of
    # the zero-offset twins included, refuses E0 and the block before it
    # decides the filling, even where LAPACK splits the Jordan blocks into
    # distinct E ~ 0, and so it does at detuning 1e-15 (kappa ~ 4.5e-8,
    # where |E| is still above tol_zero). At the default detuning of 1e-12
    # (kappa ~ 1.4e-6) no route raises: E0 runs each route's kernel. The
    # blocks are left out there because the k-space one of alpha = 2 fails
    # the gauge reality bound, a check independent of kappa: |v_k| carries
    # rounding of 1e-16 against a - u = 1e-12.
    for detuning in (0.0, 1e-15, 1e-12):
        spec = pc.ChainSpec(alpha=alpha, v=v, w=w, u=u, cells=8,
                            boundary=pc.Boundary.OBC, detuning=detuning)
        periodic = replace(spec, boundary=pc.Boundary.PBC)
        twins = [replace(s, disorder=pc.DisorderProfile(np.zeros(8)))
                 for s in (spec, periodic)]
        specs = [spec, periodic, *twins]
        calls = [(pc.ground_state_energy, s) for s in specs]
        calls += [(dense_correlation, s) for s in (spec, periodic)]
        if detuning == 1e-12:
            for f, s in calls:
                f(s)
            continue
        for f, *args in calls + [(_subsystem_correlation, s, 4) for s in specs]:
            with pytest.raises(DefectiveMatrix, match="increase the detuning"):
                f(*args)


def hermitian_cases():
    for alpha in (1, 2, 3):
        for v, w in ((1.0, 3.0), (3.0, 1.0), (1.0, 1.2)):
            for cells in (12, 24, 40):
                marks = ()
                if (alpha, v, w, cells) == (1, 1.0, 3.0, 40):
                    marks = pytest.mark.xfail(
                        strict=True, raises=AssertionError,
                        reason="the dense solve raises DefectiveMatrix on the "
                        "+-2e-19 zero-mode pair of this Hermitian chain "
                        "(kappa 9.8e-9), before the clean route's "
                        "AmbiguousFilling")
                yield pytest.param(alpha, v, w, cells, marks=marks)


@pytest.mark.parametrize("alpha, v, w, cells", hermitian_cases())
def test_hermitian_chain_block_matches_dense(alpha, v, w, cells):
    # u = 0: zero modes closer to E = 0 than tol_zero (exact for alpha >= 2)
    # make half filling ambiguous on both routes; otherwise the blocks agree
    spec = pc.ChainSpec(alpha=alpha, v=v, w=w, u=0.0, cells=cells,
                        boundary=pc.Boundary.OBC, detuning=0.0)
    assert_block_like_dense(outcome(_subsystem_correlation, spec, cells),
                            outcome(dense_correlation, spec))


def record_calls(monkeypatch, module, name):
    """Arguments of every call to module.<name>, which still runs."""
    calls = []
    real = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_tol_zero_reaches_clean_routes(monkeypatch):
    for boundary in (pc.Boundary.OBC, pc.Boundary.PBC):
        spec = pc.ChainSpec(v=1.0, w=2.0, u=1.0, cells=24, boundary=boundary)
        for call in (
            lambda: pc.entropy_profile(spec, [4], REG, tol_zero=1e-7),
            lambda: pc.ground_state_energy(spec, 1e-7),
        ):
            calls = record_calls(monkeypatch, spectral, "half_filling_weights")
            call()
            [(args, _)] = calls
            assert args[1] == 1e-7
            assert len(args[0]) == spec.n_sites


def test_clean_open_chain_makes_no_dense_solve(monkeypatch):
    spec = pc.ChainSpec(alpha=2, v=1.0, w=2.0, u=1.0, cells=30,
                        boundary=pc.Boundary.OBC)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense biorthogonal solve on a clean open chain")

    for module in (spectral, entanglement):
        monkeypatch.setattr(module, "biorthogonal_diagonalize", forbidden)
    monkeypatch.setattr(spectral.scipy.linalg, "eig", forbidden)
    sizes = []
    real_eigvals = np.linalg.eigvals

    def eigvals(a):
        sizes.append(len(a))
        return real_eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    prof = pc.entropy_profile(spec, [1, 10, 29], REG)
    pc.ground_state_energy(spec)
    assert sizes == [2, 20, 58]  # the subsystem blocks only
    assert np.all(np.isfinite(prof.values))
