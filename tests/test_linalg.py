"""Which library serves which route.

Clean chains never need a dense biorthogonal solve: the k-space and
singular-mode routes, the fits, the Zak phase and the symmetry checks run
on ``numpy.linalg`` and ``@`` alone, so a process that runs only clean
chains never imports scipy, most of a CLI process's start-up. The dense
route needs left eigenvectors (``dgeev``), which no numpy function
returns. It runs whole on scipy's LAPACK and BLAS, reached through one
cached accessor, ``spectral._scipy_linalg``: a dense run then touches one
OpenBLAS pool, since the numpy and scipy wheels each bundle their own.
"""

import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import ptchain as pc
from ptchain.rng import disorder_offsets
from ptchain.spectral import _gemm

SRC = pathlib.Path(pc.__file__).resolve().parent


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports ptchain from this tree:
    this process has imported scipy modules of its own."""
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)


def test_source_imports_scipy_only_in_the_accessor():
    pattern = re.compile(r"^\s*(?:import|from)\s+scipy\b")
    hits = [f"{path.name}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for line in path.read_text().splitlines()
            if pattern.search(line)]
    assert hits == ["spectral.py: import scipy.linalg"]


def test_cli_import_loads_no_scipy():
    proc = run_fresh("import sys, ptchain.cli; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "ptchain.cli" in loaded
    assert sorted(m for m in loaded if m == "scipy" or m.startswith("scipy.")) == []


#: Prelude of the scipy-blocked runs: a meta-path finder refuses scipy
#: and its submodules, and checks that it does.
BLOCK_SCIPY = """
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
try:
    import scipy.linalg
except ImportError:
    pass
else:
    raise SystemExit("scipy was not blocked")

import numpy as np
import ptchain as pc
from ptchain.entanglement import _subsystem_correlation, _ungauge
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
    M, _ = _subsystem_correlation(chain(boundary), 6)
    report = pc.symmetry_closure(_ungauge(M))
    assert report.t_plus_ok is t_plus and report.ph_ok
""",
}


@pytest.mark.parametrize("case", WITHOUT_SCIPY)
def test_clean_chains_run_without_scipy(case):
    check = "\nassert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
    proc = run_fresh(BLOCK_SCIPY + WITHOUT_SCIPY[case] + check)
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
    np.testing.assert_allclose(_gemm(a, b), a @ b, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(_gemm(a[:, 1:6], b[2:, :]), a[:, 1:6] @ b[2:, :],
                               rtol=1e-13, atol=1e-13)
