import os
import sys

import pytest
from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Tier-1 draws the same examples on every run; each test sets max_examples.
settings.register_profile("ptchain", deadline=None, derandomize=True)
settings.load_profile("ptchain")


def pytest_report_header(config):
    # dense-route rounding, and so some measured bounds, depends on the
    # thread count of scipy's pool; clean-route determinism rests on numpy's
    # pool being pinned to one thread
    from ptchain.spectral import _numpy_lapack, _scipy_lapack

    def describe(name, bind):
        try:
            lapack = bind()
        except ImportError as exc:
            return f"{name} LAPACK: not bound ({exc})"
        if lapack is None:
            return f"{name} LAPACK: not bound"
        threads = (lapack.get_threads() if lapack.get_threads is not None
                   else "unknown (no thread control)")
        return f"{name} LAPACK: {lapack.file}, OpenBLAS threads: {threads}"

    return [describe("scipy", _scipy_lapack), describe("numpy", _numpy_lapack)]


@pytest.fixture
def scipy_threads():
    """Set the thread count of scipy's BLAS, the dense route's pool, for the
    test, restored after it; a no-op where that BLAS exports no thread
    control."""
    from ptchain.spectral import _scipy_lapack

    lapack = _scipy_lapack()
    if lapack.get_threads is None:
        yield lambda n: None
        return
    previous = lapack.get_threads()
    yield lapack.set_threads
    lapack.set_threads(previous)
