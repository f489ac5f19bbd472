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
    from ptchain.spectral import _blas_thread_control, _numpy_lapack

    def threads(control):
        return control.get_threads() if control is not None else "unknown (no thread control)"

    return (f"scipy OpenBLAS threads: {threads(_blas_thread_control())}; "
            f"numpy OpenBLAS threads: {threads(_numpy_lapack())}")


@pytest.fixture
def scipy_threads():
    """Set the thread count of scipy's BLAS, the dense route's pool, for the
    test, restored after it; a no-op where that BLAS exports no thread
    control."""
    from ptchain.spectral import _blas_thread_control

    control = _blas_thread_control()
    if control is None:
        yield lambda n: None
        return
    previous = control.get_threads()
    yield control.set_threads
    control.set_threads(previous)
