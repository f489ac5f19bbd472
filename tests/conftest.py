import os
import sys

from hypothesis import settings

sys.path.insert(0, os.path.dirname(__file__))

# Tier-1 draws the same examples on every run; each test sets max_examples.
settings.register_profile("ptchain", deadline=None, derandomize=True)
settings.load_profile("ptchain")


def pytest_report_header(config):
    # dense-route rounding, and so some measured bounds, depends on the
    # thread count of the BLAS that scipy's factorizations run on
    from ptchain.spectral import _blas_thread_control

    control = _blas_thread_control()
    threads = int(control[0]()) if control is not None else "unknown (no thread control)"
    return f"scipy OpenBLAS threads: {threads}"
