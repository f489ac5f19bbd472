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

Both public builders and the real gauge matrix are pinned byte for byte
against the complex builders kept in ``reference_builders``. The command
line's spectrum and density tasks take a clean chain's per-mode kernel, and
must agree with the dense route and the Fock-space oracle.
"""

import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ptchain as pc
import ptchain.cli as cli
import ptchain.edge as edge
import ptchain.entanglement as entanglement
import ptchain.spectral as spectral
from ptchain.entanglement import _correlation_block
from ptchain.errors import AmbiguousFilling, DefectiveMatrix
from ptchain.lattice import _gauge_matrix
from ptchain.spectral import (
    _CLUSTER_REL,
    TOL_BIORTH,
    _cluster_blocks,
    _levels,
    _mode_amplitudes,
    _sublattice_gauge,
)

from fock_oracle import (
    biorthogonal_ground_pair,
    correlation_from_states,
    entropy_from_rho,
    reduced_density_matrix,
)
import reference_builders

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
    """M = -2i S^-1 (C - 1/2) S, real, so that nu = 1/2 + (i/2) eig(M). Its
    imaginary part vanishes up to rounding for every state of the family,
    relative to max |M| and at least 1 (C = 1/2 where every mode is half
    filled)."""
    M = 2.0 * _sublattice_gauge(C - 0.5 * np.eye(len(C)))
    assert np.max(np.abs(M.imag)) <= TOL_BIORTH * max(float(np.max(np.abs(M))), 1.0)
    return M.real


def re_im(E):
    """The (Re, Im) rows of eigenvalues, as ``_cluster_blocks`` takes them."""
    return np.stack([E.real, E.imag])


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
        (lo, hi) for lo, hi in _cluster_blocks(re_im(E), _CLUSTER_REL * scale)
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
    """Outcomes of _correlation_block and dense_correlation on one chain
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
    M, route = _correlation_block(spec, spec.cells)
    assert route == "singular_mode"
    assert M.dtype == np.float64
    scale = float(np.max(np.abs(C)))
    assert np.max(np.abs(M - gauge_block(C))) <= 1e-10 * scale
    for ell in sorted({1, spec.cells // 2} - {0}):
        lead, _ = _correlation_block(spec, ell)
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
        assert_block_like_dense(outcome(_correlation_block, spec, 24, tol_zero),
                                outcome(dense_correlation, spec, tol_zero))


def leading_block(spec, tol_zero):
    return _correlation_block(spec, 8, tol_zero)


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
    # (kappa ~ 1.4e-6) no route raises, the blocks included.
    for detuning in (0.0, 1e-15, 1e-12):
        spec = pc.ChainSpec(alpha=alpha, v=v, w=w, u=u, cells=8,
                            boundary=pc.Boundary.OBC, detuning=detuning)
        periodic = replace(spec, boundary=pc.Boundary.PBC)
        twins = [replace(s, disorder=pc.DisorderProfile(np.zeros(8)))
                 for s in (spec, periodic)]
        specs = [spec, periodic, *twins]
        calls = [(pc.ground_state_energy, s) for s in specs]
        calls += [(dense_correlation, s) for s in (spec, periodic)]
        calls += [(_correlation_block, s, 4) for s in specs]
        if detuning == 1e-12:
            for f, *args in calls:
                f(*args)
            continue
        for f, *args in calls:
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
    assert_block_like_dense(outcome(_correlation_block, spec, cells),
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


def record_eigvals(monkeypatch):
    """(library, shape) of every subsystem eigensolve, which still runs, on
    two usable CPUs: the bound ``dgeev`` of ``spectral._geev`` on numpy's
    LAPACK ("numpy") serves the clean routes, on scipy's ("scipy") the dense
    one. A call of ``numpy.linalg.eigvals`` is recorded as "numpy.linalg".
    Helper threads solve concurrently, so the calls come sorted."""
    calls = []

    def geev(lapack, a, *args, **kwargs):
        lib = "numpy" if lapack is spectral._numpy_lapack() else "scipy"
        calls.append((lib, a.shape))
        return spectral._geev(lapack, a, *args, **kwargs)

    def eigvals(a, *args, **kwargs):
        calls.append(("numpy.linalg", a.shape))
        return real_eigvals(a, *args, **kwargs)

    real_eigvals = np.linalg.eigvals
    monkeypatch.setattr(entanglement, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(entanglement, "_geev", geev)
    monkeypatch.setattr(np.linalg, "eigvals", eigvals)
    return calls


def test_clean_open_chain_makes_no_dense_solve(monkeypatch):
    spec = pc.ChainSpec(alpha=2, v=1.0, w=2.0, u=1.0, cells=30,
                        boundary=pc.Boundary.OBC)

    def forbidden(*args, **kwargs):
        raise AssertionError("dense biorthogonal solve on a clean open chain")

    calls = record_eigvals(monkeypatch)
    # the dense kernel, under each binding, and scipy's LAPACK, which holds
    # both dense eigensolvers
    monkeypatch.setattr(spectral, "biorthogonal_diagonalize", forbidden)
    for module in (spectral, entanglement):
        monkeypatch.setattr(module, "_real_gauge_system", forbidden)
        monkeypatch.setattr(module, "_scipy_lapack", forbidden)
    prof = pc.entropy_profile(spec, [1, 10, 29], REG)
    pc.ground_state_energy(spec)
    # the subsystem blocks only, on numpy's LAPACK
    assert sorted(calls) == [("numpy", (n, n)) for n in (2, 20, 58)]
    assert np.all(np.isfinite(prof.values))


def test_subsystem_eigensolve_sizes_by_route(monkeypatch):
    calls = record_eigvals(monkeypatch)
    ells = [1, 10, 29]
    clean = dict(alpha=2, v=1.0, w=2.0, u=1.0, cells=30)
    offsets = pc.DisorderProfile(0.3 * np.cos(np.arange(30)))
    # the open chain's 2 ell solves are pinned by the test above
    for spec, lib, dims in (
        # the reflection halves the periodic block: one ell x ell solve
        (pc.ChainSpec(**clean), "numpy", ells),
        # the dense route stays on scipy, the library of its whole solve
        (pc.ChainSpec(**clean, detuning=1e-6, disorder=offsets), "scipy",
         [2 * e for e in ells]),
    ):
        calls.clear()
        pc.entropy_profile(spec, ells, REG)
        assert sorted(calls) == [(lib, (n, n)) for n in dims]


# ---------------------------------------------------------------------------
# Packed real kernel of the dense route
# ---------------------------------------------------------------------------


def packed_cases():
    """Disordered chains at detuning 1e-3, and their zero-offset twins: the
    critical line (complex pairs, and the real +-iu edge modes of open
    chains), a partly broken spectrum (mixed) and a fully broken one (every
    mode real in the gauge). The twins put clusters into the solve: the
    degenerate k, -k pairs of periodic chains and the alpha = 2 edge blocks."""
    for alpha in (1, 2):
        for boundary in (pc.Boundary.PBC, pc.Boundary.OBC):
            for u, phase in ((1.0, "critical"), (2.0, "mixed"), (4.0, "broken")):
                for twin in (False, True):
                    offsets = np.zeros(30) if twin else (
                        0.6 * min(1.0, u) * np.sin(1.7 * np.arange(30) + alpha))
                    spec = pc.ChainSpec(alpha=alpha, v=1.0, w=2.0, u=u, cells=30,
                                        boundary=boundary, detuning=1e-3,
                                        disorder=pc.DisorderProfile(offsets))
                    yield pytest.param(spec, id=f"{alpha}-{boundary.value}-{phase}"
                                       + ("-twin" if twin else ""))


PACKED_CASES = list(packed_cases())


@pytest.mark.parametrize("spec", PACKED_CASES)
def test_packed_block_matches_complex_correlation(spec):
    M, route = _correlation_block(spec, 12)
    assert route == "dense" and M.dtype == np.float64
    system = pc.biorthogonal_diagonalize(pc.build_real_space(spec))
    C = pc.correlation_matrix(system, pc.select_half_filling(system), 12).matrix
    assert np.max(np.abs(entanglement._ungauge(M) - C)) <= 1e-12 * np.max(np.abs(C))


@pytest.mark.parametrize("spec", PACKED_CASES)
def test_packed_residual_is_the_complex_gram_residual(spec):
    # the complex Gram of the returned vectors, evaluated in long double: a
    # double complex product errs by up to 1.8e-15 on these chains
    system = pc.biorthogonal_diagonalize(pc.build_real_space(spec))
    (lr, li), (rr, ri) = ((v.real.astype(np.longdouble), v.imag.astype(np.longdouble))
                          for v in (system.left_vectors, system.right_vectors))
    re = lr.T @ rr + li.T @ ri - np.eye(system.n, dtype=np.longdouble)
    im = lr.T @ ri - li.T @ rr
    exact = float(np.sqrt(np.max(re * re + im * im)))
    assert abs(system.biorth_residual - exact) <= 1e-15


def test_packed_cases_hold_clusters_and_real_modes():
    sizes, real = set(), 0
    for param in PACKED_CASES:
        E = pc.biorthogonal_diagonalize(pc.build_real_space(param.values[0])).energies
        blocks = _cluster_blocks(re_im(E), _CLUSTER_REL * max(np.max(np.abs(E)), 1.0))
        sizes |= {hi - lo for lo, hi in blocks}
        real += int(np.count_nonzero(E.real == 0.0))
    assert max(sizes) >= 2 and real > 0


@pytest.mark.parametrize("cells", [200, 400])
def test_dense_block_budget_on_zero_offset_twins(cells):
    # the closed-form k-space block is the reference. At detuning 1e-12
    # (kappa 1.4e-6) the Gram check raises; the blocks would differ by
    # 7.9e-4 (L = 200) and 1.2e-3 (L = 400) relative to max |C|. Measured:
    # 5.7e-6 / 8.7e-6 at 1e-10, 3.5e-8 / 1.6e-7 at 1e-8.
    def specs(detuning):
        clean = pc.ChainSpec(v=1.0, w=2.0, u=1.0, cells=cells, detuning=detuning)
        return clean, replace(clean, disorder=pc.DisorderProfile(np.zeros(cells)))

    with pytest.raises(DefectiveMatrix, match="increase the detuning"):
        _correlation_block(specs(1e-12)[1], 40)
    for detuning, bound in ((1e-10, 1e-5), (1e-8, 1e-7 if cells == 200 else 2e-7)):
        clean, twin = specs(detuning)
        fast, route = _correlation_block(clean, 40)
        assert route == "k_space"
        reference = entanglement._ungauge(fast)
        dense = entanglement._ungauge(_correlation_block(twin, 40)[0])
        error = np.max(np.abs(dense - reference)) / np.max(np.abs(reference))
        assert error <= bound


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("couplings, cells, detuning", [
    ((1.0, 2.0, 1.0), 200, 1e-10), ((1.0, 2.0, 1.0), 200, 3e-10),
    ((1.0, 2.0, 1.0), 200, 1e-8), ((1.0, 2.0, 1.0), 400, 1e-10),
    ((1.0, 2.0, 1.0), 400, 1e-8), ((2.0, 1.0, 1.0), 400, 1e-10),
])
def test_dense_block_error_follows_the_kappa_law(scipy_threads, threads, couplings,
                                                 cells, detuning):
    # the dense block errs by at most 10 eps ||A||_1 / kappa^2 relative to
    # max |C|, at one and at two threads of scipy's pool, which the dense
    # kernel runs on. Measured over both couplings, L = 200 and 400 and all
    # three detunings: at most 7.62 times the estimate at one thread
    # ((2, 1, 1), L = 400, 1e-10) and 5.07 at two ((2, 1, 1), L = 400, 3e-10)
    v, w, u = couplings
    clean = pc.ChainSpec(v=v, w=w, u=u, cells=cells, detuning=detuning)
    twin = replace(clean, disorder=pc.DisorderProfile(np.zeros(cells)))
    reference = entanglement._ungauge(_correlation_block(clean, 40)[0])
    A = _gauge_matrix(twin)
    scipy_threads(threads)
    packed = spectral._real_gauge_system(A)
    M = packed.gauged_block(pc.half_filling_weights(packed.energies), 80)
    error = np.max(np.abs(entanglement._ungauge(M) - reference)) / np.max(np.abs(reference))
    norm = np.max(np.sum(np.abs(A), axis=0))
    assert error <= 10 * np.finfo(float).eps * norm / packed.kappa**2


def test_defect_message_states_the_error_estimate():
    # the L = 200 twin at the default detuning: kappa = 1.4e-6 and
    # ||A||_1 = 4 give eps ||A||_1 / kappa^2 = 4.4e-4, against a block error
    # of 7.9e-4 relative to max |C| (the test above)
    twin = pc.ChainSpec(v=1.0, w=2.0, u=1.0, cells=200, detuning=1e-12,
                        disorder=pc.DisorderProfile(np.zeros(200)))
    with pytest.raises(DefectiveMatrix, match="increase the detuning") as raised:
        _correlation_block(twin, 40)
    found = re.search(r"kappa = (\S+) .* kappa\^2 = (\S+)\)", str(raised.value))
    kappa, estimate = float(found[1]), float(found[2])
    norm = np.max(np.sum(np.abs(_gauge_matrix(twin)), axis=0))
    assert kappa == 1.4e-6 and norm == pytest.approx(4.0)
    assert estimate == pytest.approx(np.finfo(float).eps * norm / kappa**2, rel=0.1)
    assert 7.9e-4 / 4 <= estimate <= 7.9e-4


def forbid(monkeypatch, module, *names):
    """Make each module.<name> raise when called."""
    for name in names:
        def forbidden(*args, _name=name, **kwargs):
            raise AssertionError(f"{module.__name__}.{_name} called")
        monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize("cells", [63, 64])
def test_k_space_block_takes_the_real_inverse_fft(monkeypatch, cells):
    # M_-k = conj(M_k) on the grid, so the block is a real transform of the
    # k >= 0 half; odd and even L (the latter with its k = -pi term)
    spec = pc.ChainSpec(v=1.0, w=2.0, u=1.0, cells=cells, detuning=1e-3)
    twin = replace(spec, disorder=pc.DisorderProfile(np.zeros(cells)))
    dense, _ = _correlation_block(twin, 20)
    forbid(monkeypatch, np.fft, "ifft", "fft")
    M, route = _correlation_block(spec, 20)
    assert route == "k_space" and M.dtype == np.float64
    assert np.max(np.abs(M - dense)) <= 1e-10 * np.max(np.abs(M))


@pytest.mark.parametrize("alpha, boundary", [(1, pc.Boundary.PBC), (2, pc.Boundary.OBC)])
def test_packed_clusters_stay_real(monkeypatch, alpha, boundary):
    # the zero-offset twins hold clusters: the degenerate k, -k pairs of a
    # periodic chain, the alpha = 2 edge blocks at +-i u of an open one. The
    # rule vl^T vr = D normalizes them with no complex re-biorthogonalization
    spec = pc.ChainSpec(alpha=alpha, v=1.0, w=2.0, u=1.0, cells=30, boundary=boundary,
                        detuning=1e-3)
    twin = replace(spec, disorder=pc.DisorderProfile(np.zeros(30)))
    packed = spectral._real_gauge_system(_gauge_matrix(twin))
    system = packed.unpacked()
    E = system.energies
    blocks = _cluster_blocks(re_im(E), _CLUSTER_REL * max(np.max(np.abs(E)), 1.0))
    assert max(hi - lo for lo, hi in blocks) >= 2
    assert packed.residual < TOL_BIORTH
    gram = system.left_vectors.conj().T @ system.right_vectors
    assert np.max(np.abs(gram - np.eye(system.n))) < TOL_BIORTH
    dense, route = _correlation_block(twin, 12)
    clean, _ = _correlation_block(spec, 12)
    assert route == "dense"
    assert np.max(np.abs(dense - clean)) <= 1e-10 * np.max(np.abs(clean))


def record_kernel_calls(monkeypatch):
    """:func:`record_calls` of the one dense kernel in each module that
    binds it."""
    return [record_calls(monkeypatch, module, "_real_gauge_system")
            for module in (spectral, entanglement, edge)]


@pytest.mark.filterwarnings("error")
def test_complex_gauge_takes_the_complex_solve(monkeypatch):
    # a complex hopping lies outside the family: its gauge matrix is complex,
    # and the one dense kernel solves it in complex arithmetic
    calls = record_kernel_calls(monkeypatch)
    h = pc.build_real_space(pc.ChainSpec(v=1.0, w=2.0, u=0.5, cells=6))
    h[0, 1] *= np.exp(0.3j)
    h[1, 0] = np.conj(h[0, 1])
    system = pc.biorthogonal_diagonalize(h)
    [(args, _)] = sum(calls, [])
    assert np.iscomplexobj(args[0])
    assert system.biorth_residual < 1e-12
    np.testing.assert_allclose(h @ system.right_vectors,
                               system.right_vectors * system.energies, atol=1e-12)
    np.testing.assert_allclose(h.conj().T @ system.left_vectors,
                               system.left_vectors * system.energies.conj(), atol=1e-12)


def kernel_tasks():
    """Every caller of a dense biorthogonal solve, on a real and a complex
    gauge matrix."""
    clean = pc.ChainSpec(v=1.0, w=2.0, u=0.5, cells=6)
    h = pc.build_real_space(clean)
    h[0, 1] *= np.exp(0.3j)
    h[1, 0] = np.conj(h[0, 1])
    offsets = pc.rng.disorder_offsets(3, 0.6, 24)
    disordered = pc.ChainSpec(v=1.0, w=2.0, u=1.0, cells=24, detuning=1e-10,
                              disorder=pc.DisorderProfile(offsets))
    return {
        "real-gauge": lambda: pc.biorthogonal_diagonalize(pc.build_real_space(clean)),
        "complex-gauge": lambda: pc.biorthogonal_diagonalize(h),
        "disordered-energy": lambda: pc.ground_state_energy(disordered),
        "interface-density": lambda: pc.interface_density(
            pc.InterfaceSpec(v1=1.5, v2=0.5, w=1.0, u=0.5)),
        "disordered-entropy": lambda: pc.entropy_profile(disordered, [4, 8], REG),
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("task", list(kernel_tasks()))
def test_every_dense_solve_takes_the_one_kernel(monkeypatch, task):
    calls = record_kernel_calls(monkeypatch)
    kernel_tasks()[task]()
    assert len(sum(calls, [])) == 1


@pytest.mark.filterwarnings("error")
def test_complex_gauge_clusters_are_biorthonormal():
    # Q kron(I2, D) Q^dag: every eigenvalue of the random complex D twice,
    # split only by rounding, so the kernel normalizes three twofold clusters
    rng = np.random.default_rng(7)
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    D = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = Q @ np.kron(np.eye(2), D) @ Q.conj().T
    assert np.iscomplexobj(_sublattice_gauge(h))
    system = pc.biorthogonal_diagonalize(h)
    E = system.energies
    blocks = _cluster_blocks(re_im(E), _CLUSTER_REL * max(np.max(np.abs(E)), 1.0))
    assert [hi - lo for lo, hi in blocks] == [2, 2, 2]
    assert system.biorth_residual < TOL_BIORTH
    gram = system.left_vectors.conj().T @ system.right_vectors
    assert np.max(np.abs(gram - np.eye(6))) < TOL_BIORTH
    np.testing.assert_allclose(h @ system.right_vectors,
                               system.right_vectors * E, atol=1e-12)


@pytest.mark.filterwarnings("error")
def test_complex_gauge_exceptional_point_is_defective():
    h = np.array([[1j, np.exp(0.3j)], [np.exp(-0.3j), -1j]])
    assert np.iscomplexobj(_sublattice_gauge(h))
    with pytest.raises(DefectiveMatrix, match="kappa = "):
        pc.biorthogonal_diagonalize(h)


# ---------------------------------------------------------------------------
# One builder: the real gauge matrix
# ---------------------------------------------------------------------------


def reference_gauge(spec):
    """-i S^-1 H S of the reference complex builder, as a C-ordered array."""
    return np.ascontiguousarray(_sublattice_gauge(reference_builders.build_real_space(spec)))


@settings(max_examples=200)
@given(chains())
def test_builders_match_the_complex_builders(spec):
    # byte for byte, signed zeros included: dgeev's bits follow them
    assert pc.build_real_space(spec).tobytes() == \
        reference_builders.build_real_space(spec).tobytes()
    G = _gauge_matrix(spec)
    assert G.dtype == np.float64
    assert G.tobytes() == reference_gauge(spec).tobytes()


def test_interface_builder_matches_the_cell_loop():
    for v1 in (1.5, 100.0, 0.0, 1):
        for v2, w, u in ((0.5, 1.0, 0.5), (0.5, 1.0, 0.0), (2, -1.0, 0), (0.0, 0.0, 1.0)):
            for cells in ((2, 2), (3, 5), (20, 20)):
                spec = pc.InterfaceSpec(v1, v2, w, u, *cells)
                assert pc.build_interface(spec).tobytes() == \
                    reference_builders.build_interface(spec).tobytes(), spec


@pytest.mark.parametrize("alpha, boundary", [(1, pc.Boundary.PBC), (2, pc.Boundary.OBC)])
def test_dense_route_takes_the_gauge_matrix(monkeypatch, alpha, boundary):
    # the dense block and the disordered E0 hand the builder's G to the
    # kernel, never a gauged complex H
    offsets = pc.rng.disorder_offsets(1, 0.6, 60)
    spec = pc.ChainSpec(alpha=alpha, v=1.0, w=2.0, u=1.0, cells=60, boundary=boundary,
                        detuning=1e-10, disorder=pc.DisorderProfile(offsets))
    reference = reference_gauge(spec)

    def forbidden(*args, **kwargs):
        raise AssertionError("the dense route gauged a complex Hamiltonian")

    monkeypatch.setattr(spectral, "_sublattice_gauge", forbidden)
    calls = [record_calls(monkeypatch, module, "_real_gauge_system")
             for module in (entanglement, spectral)]
    _correlation_block(spec, 12)
    pc.ground_state_energy(spec)
    for [(args, _)] in calls:
        assert args[0].tobytes() == reference.tobytes()


# ---------------------------------------------------------------------------
# The spectrum and density tasks on clean chains
# ---------------------------------------------------------------------------


def dense_error_scale(spec):
    """(eps ||G||_1, kappa): kappa = min |e| / max(a, u) over the clean
    chain's modes, its distance from an exceptional point. The dense route
    errs by about eps ||G|| / kappa in an energy and eps ||G|| / kappa^2,
    relative, in a density."""
    a, u = _mode_amplitudes(spec), spec.u_eff
    kappa = float(np.min(np.abs(_levels(a, u)) / np.maximum(a, u))) if u > 0 else 1.0
    return np.finfo(float).eps * np.linalg.norm(_gauge_matrix(spec), 1), kappa


def task_densities(spec):
    """Site densities of the density task, cell-major, and its route."""
    (_, columns), fields = cli._run_density(spec)
    return np.ravel(np.column_stack([columns["n_A"], columns["n_B"]])), fields["route"]


@PROPERTY
@given(CLEAN_CHAINS)
def test_clean_spectrum_and_density_tasks_match_dense(spec):
    # measured over 1000 chains: at most 29 eps ||G|| / kappa in an energy
    # and 7.5 eps ||G|| / kappa^2 relative in a density
    system = outcome(pc.biorthogonal_diagonalize, pc.build_real_space(spec))
    assume(not isinstance(system, type))
    occupied = outcome(pc.select_half_filling, system)
    assume(not isinstance(occupied, type))
    eps_norm, kappa = dense_error_scale(spec)
    route = "k_space" if spec.boundary is pc.Boundary.PBC else "singular_mode"

    (_, columns), fields = cli._run_spectrum(spec)
    energies = np.asarray(columns["E"])
    assert fields["route"] == route and fields["biorth_residual"] is None
    assert list(columns["index"]) == list(range(system.n))
    assert list(energies) == sorted(energies, key=lambda z: (z.real, z.imag))
    gap = max(match_distance(energies, system.energies),
              match_distance(system.energies, energies))
    assert gap <= 100 * eps_norm / kappa

    site, density_route = task_densities(spec)
    dense = pc.density_profile(system, occupied).site
    assert density_route == route
    scale = max(float(np.max(np.abs(dense))), 1.0)
    assert np.max(np.abs(site - dense)) <= 50 * eps_norm / kappa**2 * scale


@settings(max_examples=60)
@given(st.sampled_from([pc.Boundary.PBC, pc.Boundary.OBC]).flatmap(
    lambda boundary: chains(max_cells=4, clean=boundary, min_detuning=1e-3, min_u=0.0)))
def test_clean_density_task_matches_fock_oracle(spec):
    # measured over 300 chains: at most 2.1e-12 relative
    h = pc.build_real_space(spec)
    assume(np.min(np.abs(np.linalg.eigvals(h).real)) > 1e-3)
    gr, gl = biorthogonal_ground_pair(h)
    oracle = np.diagonal(correlation_from_states(gr, gl, spec.n_sites))
    site, _ = task_densities(spec)
    assert np.max(np.abs(site - oracle)) < 1e-10 * max(float(np.max(np.abs(oracle))), 1.0)
