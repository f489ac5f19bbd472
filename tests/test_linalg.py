"""Which library serves which route.

Clean chains never need a dense biorthogonal solve: the k-space and
singular-mode routes, the fits, the Zak phase and the symmetry checks run
on ``numpy.linalg``, ``@`` and numpy's own LAPACK, so a process that runs
only clean chains never imports scipy, most of a CLI process's start-up.
The dense route needs left eigenvectors (``dgeev``), which no numpy
function returns. It runs whole on the LAPACK and BLAS that scipy's
``_flapack`` extension links, bound through ctypes by
``spectral._scipy_lapack`` without importing ``scipy.linalg``: a dense run
then touches one OpenBLAS pool, since the numpy and scipy wheels each
bundle their own, and the bindings make scipy's wrappers' calls, bit for
bit, which the tests below check with ``scipy.linalg`` imported here only.
"""

import os
import pathlib
import re
import subprocess
import sys
import threading
from functools import partial

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings

import ptchain as pc
from ptchain import spectral
from ptchain.entanglement import _subsystem_correlation, _subsystem_eigvals
from ptchain.lattice import _gauge_matrix
from ptchain.rng import disorder_offsets
from ptchain.spectral import _geev, _gemm, _scipy_lapack
from test_gauge import EDGE_CHAINS, PACKED_CASES

SRC = pathlib.Path(pc.__file__).resolve().parent


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports ptchain from this tree:
    this process has imported scipy modules of its own."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_source_imports_no_scipy():
    pattern = re.compile(r"^\s*(?:import|from)\s+scipy\b")
    hits = [f"{path.name}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for line in path.read_text().splitlines()
            if pattern.search(line)]
    assert hits == []


def test_cli_import_loads_no_scipy():
    proc = run_fresh("import sys, ptchain.cli; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "ptchain.cli" in loaded
    assert sorted(m for m in loaded if m == "scipy" or m.startswith("scipy.")) == []


#: Prelude of the blocked runs: a meta-path finder refuses a package
#: (scipy, or scipy.linalg) and its submodules, and checks that it does.
BLOCK = """
import sys

class Block:
    def find_spec(self, name, path=None, target=None):
        if name == {blocked!r} or name.startswith({blocked!r} + "."):
            raise ImportError(f"{{name}} is blocked")

sys.meta_path.insert(0, Block())
try:
    import scipy.linalg
except ImportError:
    pass
else:
    raise SystemExit("{blocked} was not blocked")

import numpy as np
import ptchain as pc
from ptchain.entanglement import _correlation_block, _ungauge
from ptchain.fits import FixedCount

def chain(boundary):
    return pc.ChainSpec(alpha=2, v=1.0, w=2.0, u=1.0, cells=24, boundary=boundary,
                        detuning=1e-10)

PBC, OBC = pc.Boundary.PBC, pc.Boundary.OBC
"""

#: Clean-chain work that must run with scipy blocked.
WITHOUT_SCIPY = {
    "entropy-profile-pbc": """
prof = pc.entropy_profile(chain(PBC), [2, 6, 12], pc.Prescription.REGULARIZED)
assert prof.route == "k_space" and np.all(np.isfinite(prof.values))
""",
    "entropy-profile-obc": """
prof = pc.entropy_profile(chain(OBC), [2, 6, 12], pc.Prescription.REGULARIZED)
assert prof.route == "singular_mode" and np.all(np.isfinite(prof.values))
""",
    "casimir": """
for boundary in (PBC, OBC):
    sizes, energies = pc.casimir_energy_table(chain(boundary), [16, 20, 24, 28, 32])
    fit = pc.casimir_fit(sizes, energies, boundary.value)
    assert fit.stderr and np.isfinite(fit.sse)
""",
    "cc-fits": """
ells = np.arange(2, 12)
y = np.log(np.sin(np.pi * ells / 24)) / 6 + 0.5
for fit in (pc.cc_fit_obc(ells, y, 24, FixedCount(0)),
            pc.cc_fit_pbc(ells, y, 24, FixedCount(0))):
    assert fit.stderr and np.isfinite(fit.sse)
""",
    "zak-broken": """
# the Gauss-Legendre quadrature of the PT-broken wedge
spec = pc.ChainSpec(v=1.0, w=1.5, u=1.0, cells=8)
assert pc.classify_pt(spec) is pc.PTClass.BROKEN
assert np.isfinite(pc.zak_phase(spec))
""",
    "symmetry-closure": """
# open ends break the conjugation closure; particle-hole holds on both
for boundary, t_plus in ((PBC, True), (OBC, False)):
    M, _ = _correlation_block(chain(boundary), 6)
    report = pc.symmetry_closure(_ungauge(M))
    assert report.t_plus_ok is t_plus and report.ph_ok
""",
}


@pytest.mark.parametrize("case", WITHOUT_SCIPY)
def test_clean_chains_run_without_scipy(case):
    check = "\nassert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
    proc = run_fresh(BLOCK.format(blocked="scipy") + WITHOUT_SCIPY[case] + check)
    assert proc.returncode == 0, proc.stderr + proc.stdout


#: Dense-route work that must run with scipy.linalg blocked: its LAPACK and
#: BLAS are bound through ctypes, not imported.
WITHOUT_SCIPY_LINALG = {
    "density-sm-s6a": """
import tempfile
from ptchain import cli

with tempfile.TemporaryDirectory() as out:
    assert cli.main(["fig", "sm-s6a", "--scale", "10", "--out", out]) == 0
""",
    "disorder-ensemble": """
template = pc.ChainSpec(v=1.0, w=2.0, u=1.0, cells=24, detuning=1e-10)
stats = pc.disorder_ensemble(template, 0.9, 4, 7, [4, 8], jobs=2)
assert stats.workers == min(2, pc.fits._usable_cpus())
assert np.max(np.abs(stats.im_values + np.pi)) < 1e-6
""",
    "complex-path": """
# a complex gauge: zgeev and the complex cluster algebra
rng = np.random.default_rng(2)
H = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
assert pc.biorthogonal_diagonalize(H).biorth_residual < 1e-9
""",
    "occupied-correlation": """
spec = chain(PBC)
system = pc.biorthogonal_diagonalize(pc.build_real_space(spec))
C = pc.occupied_correlation(system, pc.select_half_filling(system))
assert np.allclose(np.trace(C), spec.cells)
""",
    "correlation-matrix": """
system = pc.biorthogonal_diagonalize(pc.build_real_space(chain(OBC)))
block = pc.correlation_matrix(system, pc.select_half_filling(system), 6)
assert block.matrix.shape == (12, 12) and np.all(np.isfinite(block.matrix))
""",
}


@pytest.mark.parametrize("case", WITHOUT_SCIPY_LINALG)
def test_dense_route_runs_without_scipy_linalg(case):
    check = ("\nassert not [m for m in sys.modules if m == 'scipy.linalg' "
             "or m.startswith('scipy.linalg.')]\n")
    proc = run_fresh(BLOCK.format(blocked="scipy.linalg") + WITHOUT_SCIPY_LINALG[case]
                     + check)
    assert proc.returncode == 0, proc.stderr + proc.stdout


@pytest.fixture
def no_numpy_linalg(monkeypatch):
    """Every function of numpy.linalg raises."""

    def make_forbidden(name):
        def forbidden(*args, **kwargs):
            raise AssertionError(f"numpy.linalg.{name} called")
        return forbidden

    for name in dir(np.linalg):
        obj = getattr(np.linalg, name)
        if callable(obj) and not isinstance(obj, type):
            monkeypatch.setattr(np.linalg, name, make_forbidden(name))


def chain(boundary, disorder=None):
    return pc.ChainSpec(alpha=2, v=1.0, w=2.0, u=1.0, cells=24, boundary=boundary,
                        detuning=1e-10, disorder=disorder)


@pytest.mark.parametrize("spec", [
    chain(pc.Boundary.PBC, pc.DisorderProfile(disorder_offsets(5, 0.5, 24))),
], ids=["disordered"])
def test_entropy_profile_runs_without_numpy_linalg(no_numpy_linalg, spec):
    prof = pc.entropy_profile(spec, [2, 6, 12], pc.Prescription.REGULARIZED)
    assert prof.route == "dense"
    assert np.all(np.isfinite(prof.values))


def test_dense_energy_and_interface_density_run_without_numpy_linalg(no_numpy_linalg):
    # the zero-offset twin takes the dense route, where alpha = 2 puts
    # degenerate edge clusters into the solve
    twin = chain(pc.Boundary.OBC, pc.DisorderProfile(np.zeros(24)))
    assert np.isfinite(pc.ground_state_energy(twin))
    density, state = pc.interface_density(pc.InterfaceSpec(1.5, 0.5, 1.0, 0.5))
    assert np.all(np.isfinite(density.site)) and 0 < state.E.imag < 0.5


@pytest.mark.parametrize("order_a, order_b", [("C", "C"), ("C", "F"), ("F", "C"),
                                              ("F", "F")])
def test_gemm_matches_matmul_in_any_memory_order(order_a, order_b):
    rng = np.random.default_rng(3)
    a = np.asarray(rng.normal(size=(5, 7)) + 1j * rng.normal(size=(5, 7)),
                   order=order_a)
    b = np.asarray(rng.normal(size=(7, 4)), order=order_b)
    # real and complex operands, whole, sliced and strided (neither C- nor
    # Fortran-ordered, copied first)
    for x, y in ((a, b), (a.real, b), (a, b + 1j), (a.real.copy(order=order_a), b),
                 (a[:, 1:6], b[2:, :]), (a[:, ::2], b[::2, :]), (a.real[::2, ::3], b[::3])):
        np.testing.assert_allclose(_gemm(x, y), x @ y, rtol=1e-13, atol=1e-13)
    with pytest.raises(ValueError, match="do not multiply"):
        _gemm(a, b[1:])
    with pytest.raises(ValueError, match="do not multiply"):
        _gemm(a, b[:, 0])


# ---------------------------------------------------------------------------
# The bindings against the scipy.linalg functions they replace
# ---------------------------------------------------------------------------

def realization(alpha, boundary, seed):
    """A fig4a-like realization: offsets within 0.999 of the critical
    v = 1, w = 2, u = 1 chain, at 60 cells."""
    return pc.ChainSpec(alpha=alpha, v=1.0, w=2.0, u=1.0, cells=60, boundary=boundary,
                        detuning=1e-10,
                        disorder=pc.DisorderProfile(disorder_offsets(seed, 0.999, 60)))


REALIZATIONS = [pytest.param(realization(alpha, boundary, 1234 + i),
                             id=f"fig4a-like-{alpha}-{boundary.value}")
                for i, (alpha, boundary) in enumerate(
                    (alpha, boundary) for alpha in (1, 2)
                    for boundary in (pc.Boundary.PBC, pc.Boundary.OBC))]

THREADS = pytest.mark.parametrize("threads", [1, 2])


def assert_bits(ours, theirs):
    assert len(ours) == len(theirs)
    for x, y in zip(ours, theirs):
        assert x.dtype == y.dtype and np.array_equal(x, y)


@THREADS
@pytest.mark.parametrize("spec", REALIZATIONS + PACKED_CASES)
def test_dgeev_with_vectors_is_scipys(scipy_threads, threads, spec):
    scipy_threads(threads)
    A = _gauge_matrix(spec)
    lwork, info = sla.lapack.dgeev_lwork(len(A))
    *theirs, info = sla.lapack.dgeev(A, lwork=int(lwork))
    assert info == 0
    assert_bits(_geev(_scipy_lapack(), A, vectors=True), theirs)


@THREADS
@pytest.mark.parametrize("spec", REALIZATIONS)
def test_dgeev_values_on_dense_blocks_are_scipys(scipy_threads, threads, spec):
    scipy_threads(threads)
    M, route = _subsystem_correlation(spec, 30)
    assert route == "dense"
    for ell in (1, 2, 10, 30):
        assert_bits([_subsystem_eigvals(M, route, ell, partial(_geev, _scipy_lapack()))],
                    [_subsystem_eigvals(M, route, ell, sla.eigvals)])


@THREADS
def test_cluster_svd_is_scipys(monkeypatch, scipy_threads, threads):
    # every cluster the packed cases hold, at the call the kernel makes
    scipy_threads(threads)
    shapes, ours = [], spectral._svd

    def svd(a):
        result = ours(a)
        assert_bits(result, sla.svd(a, lapack_driver="gesdd"))
        shapes.append(a.shape)
        return result

    monkeypatch.setattr(spectral, "_svd", svd)
    for param in PACKED_CASES:
        spectral._real_gauge_system(_gauge_matrix(param.values[0]))
    assert len(shapes) >= 2 and min(n for n, _ in shapes) >= 2


@THREADS
def test_zgeev_and_complex_svd_are_scipys(scipy_threads, threads):
    # a matrix outside the family, whose gauge is complex
    scipy_threads(threads)
    rng = np.random.default_rng(5)
    H = rng.normal(size=(40, 40)) + 1j * rng.normal(size=(40, 40))
    assert_bits(_geev(_scipy_lapack(), H, vectors=True), sla.eig(H, left=True, right=True))
    for M in (H, H[:, :25], H[:25], H.real[:, :25]):
        assert_bits(spectral._svd(M), sla.svd(M, lapack_driver="gesdd"))


def counting(lapack):
    """``lapack`` with its ``dgeev`` and ``zgeev`` recording the lwork of
    each call, -1 for a workspace query, in the list returned beside it."""
    lworks = []

    def wrap(routine, at):
        def call(*args):
            lworks.append(args[at].value)
            routine(*args)
        return call

    return lapack._replace(dgeev=wrap(lapack.dgeev, 12), zgeev=wrap(lapack.zgeev, 11)), lworks


LIBRARIES = [pytest.param(spectral._numpy_lapack, id="numpy"),
             pytest.param(_scipy_lapack, id="scipy")]


def bound(library):
    lapack = library()
    if lapack is None:
        pytest.skip("numpy does not export its dgeev")
    return lapack


def as_list(result):
    return list(result) if isinstance(result, tuple) else [result]


@pytest.mark.parametrize("library", LIBRARIES)
@pytest.mark.parametrize("dtype", [float, complex], ids=["real", "complex"])
@pytest.mark.parametrize("vectors", [False, True], ids=["values", "vectors"])
def test_geev_workspace_kept_per_size(monkeypatch, library, dtype, vectors):
    # the first solve of a size queries its workspace, each later one makes
    # a single call with it, and both give the same bits; 75 and 76 sit on
    # either side of LAPACK's small-matrix switch (nmin = 75 in dhseqr)
    lapack, lworks = counting(bound(library))
    monkeypatch.setattr(spectral, "_WORKSPACES", {})
    rng = np.random.default_rng(13)
    for n in (1, 2, 75, 76, 200):
        a = rng.normal(size=(n, n)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.normal(size=(n, n))
        del lworks[:]
        with spectral._one_blas_thread(lapack):
            first = _geev(lapack, np.array(a, order="F"), vectors)
            assert len(lworks) == 2 and lworks[0] == -1 and lworks[1] >= 1
            second = _geev(lapack, np.array(a, order="F"), vectors)
        assert lworks[2:] == [lworks[1]]
        assert_bits(as_list(second), as_list(first))
        key = (lapack.file, np.dtype(dtype).type, n, b"V" if vectors else b"N")
        assert spectral._WORKSPACES[key] == lworks[1]


@pytest.mark.parametrize("library", LIBRARIES)
def test_geev_first_calls_on_two_threads_agree(monkeypatch, library):
    # two threads query the same size at once, each on one BLAS thread
    lapack = bound(library)
    monkeypatch.setattr(spectral, "_WORKSPACES", {})
    a = np.random.default_rng(17).normal(size=(76, 76))
    barrier = threading.Barrier(2, timeout=60)
    results = [None, None]

    def solve(k):
        barrier.wait()
        results[k] = _geev(lapack, np.array(a, order="F"), vectors=True)

    with spectral._one_blas_thread(lapack):
        threads = [threading.Thread(target=solve, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert_bits(results[1], results[0])
        assert list(spectral._WORKSPACES) == [(lapack.file, np.float64, 76, b"V")]
        assert_bits(_geev(lapack, np.array(a, order="F"), vectors=True), results[0])


def lu_rule(vl, vr, half):
    """The cluster rule before the one SVD: vl T^-H D, T = vl^dag vr, with
    T inverted by LU (scipy's ``inv``, ``getrf`` and ``getri``)."""
    T = _gemm(vl.conj().T, vr)
    return _gemm(vl, sla.inv(T).conj().T * half)


def assert_cluster_rule_is_lu_rule(monkeypatch, A):
    """Each cluster's left vectors from the kernel lie within 1e-13,
    relative, of the LU rule's on the same LAPACK vectors, and the Gram
    residual with the LU rule's vectors in their place within 1e-15."""
    calls, ours = [], spectral._cluster_rule

    def rule(vl, vr, half):
        kappa, left = ours(vl, vr, half)
        calls.append((vr, left, lu_rule(vl, vr, half)))
        return kappa, left

    monkeypatch.setattr(spectral, "_cluster_rule", rule)
    system = spectral._real_gauge_system(A)
    monkeypatch.undo()
    column = {c.tobytes(): j for j, c in enumerate(system.vr.T)}
    vl = system.vl.copy(order="F")
    for vr, left, reference in calls:
        np.testing.assert_allclose(left, reference, rtol=0,
                                   atol=1e-13 * np.max(np.abs(reference)))
        vl[:, [column[c.tobytes()] for c in vr.T]] = reference
    residual = spectral._packed_gram_residual(_gemm(vl.conj().T, system.vr), system.pairs)
    assert abs(system.residual - residual) <= 1e-15
    return len(calls)


def test_cluster_rule_matches_lu_rule_on_packed_cases(monkeypatch):
    clusters = sum(assert_cluster_rule_is_lu_rule(monkeypatch, _gauge_matrix(p.values[0]))
                   for p in PACKED_CASES)
    assert clusters >= 2


@settings(max_examples=40)
@given(EDGE_CHAINS)
def test_cluster_rule_matches_lu_rule_on_edge_chains(spec):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert assert_cluster_rule_is_lu_rule(monkeypatch, _gauge_matrix(spec)) == 2


def test_bound_routines_are_the_called_ones():
    # the set of lapack.<name> references in the package is the table of
    # bound routines: none bound and never called, none called by a
    # computed name
    fields = set(spectral._Lapack._fields) - set(spectral._SIGNATURES)
    names = {name for path in SRC.glob("*.py")
             for name in re.findall(r"\blapack\.(\w+)", path.read_text())}
    assert names - fields == set(spectral._SIGNATURES)


@THREADS
@pytest.mark.parametrize("dtypes", [(float, float), (complex, float), (float, complex)],
                         ids=["real", "complex-real", "real-complex"])
def test_gemm_is_scipys(scipy_threads, threads, dtypes):
    # the call scipy's gemm wrapper gets from the dense route's products,
    # which hand it C-ordered operands as transposes; f2py copies an operand
    # in neither order Fortran-ordered
    scipy_threads(threads)
    rng = np.random.default_rng(7)
    a, b = (rng.normal(size=shape).astype(dtype)
            for shape, dtype in zip(((90, 70), (70, 80)), dtypes))
    for x, y in ((a, b), (np.asfortranarray(a), b), (a, np.asfortranarray(b)),
                 (a[:, ::2], b[::2]), (a[::3].T, b[:30])):
        gemm = sla.blas.get_blas_funcs("gemm", (x, y))
        fx, fy = x.flags.f_contiguous, y.flags.f_contiguous
        theirs = gemm(1.0, x if fx else x.T, y if fy else y.T,
                      trans_a=0 if fx else 1, trans_b=0 if fy else 1)
        assert_bits([_gemm(x, y)], [theirs])


@pytest.mark.parametrize("bits, other", [(32, "numpy"), (64, "scipy")])
def test_library_without_the_names_refused(monkeypatch, bits, other):
    # numpy's library exports only 64-bit names, scipy's only 32-bit ones
    from numpy.linalg import _umath_linalg

    file = _umath_linalg.__file__ if other == "numpy" else _scipy_lapack().file
    suffix = "_" if bits == 32 else "_64_"
    with pytest.raises(ImportError, match=f"neither scipy_dgeev{suffix} nor dgeev{suffix}"):
        spectral._bind_lapack(file, bits)
    # on the first dense call, where scipy's library lacks them
    monkeypatch.setattr(spectral, "_scipy_lapack", lambda: spectral._bind_lapack(file, bits))
    with pytest.raises(ImportError, match="dgeev"):
        pc.ground_state_energy(realization(1, pc.Boundary.PBC, 1))
