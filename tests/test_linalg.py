"""One BLAS for the whole package.

The numpy and scipy wheels each bundle their own OpenBLAS with its own
thread pool, and a pool left idle after a call keeps a core busy for a
while. Every dense factorization and large product in ``ptchain`` therefore
runs on scipy's LAPACK and BLAS; ``numpy.linalg`` contributes only its
``LinAlgError``. Of scipy only ``scipy.linalg`` is imported, which keeps
every CLI process's start-up short.
"""

import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import ptchain as pc
from ptchain.fits import FixedCount
from ptchain.rng import disorder_offsets
from ptchain.spectral import _gemm

SRC = pathlib.Path(pc.__file__).resolve().parent


def test_source_uses_no_numpy_linalg():
    pattern = re.compile(r"\b(?:np|numpy)\.linalg\b(?!\.LinAlgError\b)")
    hits = [f"{path.name}:{n}: {line.strip()}"
            for path in sorted(SRC.glob("*.py"))
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def test_cli_import_loads_no_scipy_optimize():
    # a fresh interpreter: this process has imported scipy modules of its own
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    probe = "import sys, ptchain.cli; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert {"ptchain.cli", "scipy.linalg"} <= loaded
    assert not {"scipy.optimize", "scipy.special"} & loaded


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
    chain(pc.Boundary.OBC),
    chain(pc.Boundary.PBC),
], ids=["disordered", "clean-open", "clean-periodic"])
def test_entropy_profile_runs_without_numpy_linalg(no_numpy_linalg, spec):
    prof = pc.entropy_profile(spec, [2, 6, 12], pc.Prescription.REGULARIZED)
    assert np.all(np.isfinite(prof.values))


def test_energies_and_fits_run_without_numpy_linalg(no_numpy_linalg):
    # the zero-offset twin takes the dense route, where alpha = 2 puts
    # degenerate edge clusters into the solve
    twin = chain(pc.Boundary.OBC, pc.DisorderProfile(np.zeros(24)))
    assert np.isfinite(pc.ground_state_energy(twin))
    sizes, energies = pc.casimir_energy_table(chain(pc.Boundary.OBC), [16, 20, 24, 28, 32])
    fit = pc.casimir_fit(sizes, energies, "obc")
    assert fit.stderr and np.isfinite(fit.sse)
    ells = np.arange(2, 12)
    y = np.log(np.sin(np.pi * ells / 24)) / 6 + 0.5
    for fit in (pc.cc_fit_obc(ells, y, 24, FixedCount(0)),
                pc.cc_fit_pbc(ells, y, 24, FixedCount(0))):
        assert fit.stderr and np.isfinite(fit.sse)


def test_broken_class_zak_phase_runs_without_numpy_linalg(no_numpy_linalg):
    # the Gauss-Legendre quadrature of the PT-broken wedge
    spec = pc.ChainSpec(v=1.0, w=1.5, u=1.0, cells=8)
    assert pc.classify_pt(spec) is pc.PTClass.BROKEN
    assert np.isfinite(pc.zak_phase(spec))


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
