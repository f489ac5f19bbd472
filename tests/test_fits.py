import contextlib
import ctypes
import multiprocessing
import os
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import ptchain as pc
from ptchain import spectral
from ptchain.errors import InsufficientPoints, NoConvergence
from ptchain.fits import (FixedCount, UntilRMSE, UntilSSE, _linear_fit,
                          _shift_grid_sse, _shifted_cc_design)
from ptchain.rng import SplitMix64, disorder_offsets


class TestCCFitPBC:
    def test_exact_line_recovery(self):
        ells = np.arange(4, 40)
        L = 100
        x = np.log(np.sin(np.pi * ells / L))
        y = (-2.0 / 3.0) * x + 1.0
        fit = pc.cc_fit_pbc(ells, y, L)
        assert_allclose(fit.coefficients["c_over_3"], -2 / 3, atol=1e-12)
        assert_allclose(fit.coefficients["s0"], 1.0, atol=1e-12)
        assert fit.sse < 1e-24

    def test_fixed_trim_drops_smallest(self):
        ells = np.arange(1, 20)
        L = 50
        x = np.log(np.sin(np.pi * ells / L))
        y = 0.5 * x - 2.0
        y[0] += 10.0  # contaminate the smallest point
        fit = pc.cc_fit_pbc(ells, y, L, FixedCount(1))
        assert fit.trim_count == 1
        assert_allclose(fit.coefficients["c_over_3"], 0.5, atol=1e-12)

    def test_until_sse_trims_contamination(self):
        ells = np.arange(1, 30)
        L = 64
        x = np.log(np.sin(np.pi * ells / L))
        y = -0.6 * x + 0.3
        y[:3] += np.array([0.5, 0.2, 0.1])
        fit = pc.cc_fit_pbc(ells, y, L, UntilSSE(1e-4))
        assert fit.trim_count == 3
        assert_allclose(fit.coefficients["c_over_3"], -0.6, atol=1e-10)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            pc.cc_fit_pbc([2, 3, 4], [1.0, 2.0, 3.0], 10)

    @pytest.mark.parametrize("bad", [[0], [24], [30, 40]])
    def test_sizes_outside_the_chain_are_named(self, bad):
        # log sin(pi l / L) is -inf at l = 0, near -37 at l = L, NaN beyond
        ells = [2, 4, 6, 8] + bad
        with pytest.raises(ValueError, match=r"subsystem sizes "
                           + ", ".join(map(str, bad)) + r" lie outside \(0, L = 24\)"):
            pc.cc_fit_pbc(ells, np.ones(len(ells)), 24)

    @given(slope=st.floats(-1, -0.1), intercept=st.floats(-20, 5))
    @settings(max_examples=25)
    def test_planted_recovery(self, slope, intercept):
        ells = np.arange(3, 30)
        x = np.log(np.sin(np.pi * ells / 64))
        fit = pc.cc_fit_pbc(ells, slope * x + intercept, 64)
        assert abs(fit.coefficients["c_over_3"] - slope) < 1e-8
        assert abs(fit.coefficients["s0"] - intercept) < 1e-8


class TestCCFitOBC:
    @staticmethod
    def model(ells, L, c6, s0, dl):
        return c6 * np.log(np.sin(np.pi * (ells + 2 * dl) / (L + 2 * dl))) + s0

    def test_exact_recovery(self):
        L = 200
        ells = np.arange(3, 101, dtype=float)
        y = self.model(ells, L, -1 / 3, -0.8, 1.3)
        fit = pc.cc_fit_obc(ells, y, L, FixedCount(0))
        assert_allclose(fit.coefficients["c_over_6"], -1 / 3, atol=1e-8)
        assert_allclose(fit.coefficients["s0"], -0.8, atol=1e-8)
        assert_allclose(fit.coefficients["delta_ell"], 1.3, atol=1e-6)

    def test_negative_shift_recovery(self):
        L = 120
        ells = np.arange(5, 61, dtype=float)
        y = self.model(ells, L, -0.34, 0.2, -2.1)
        fit = pc.cc_fit_obc(ells, y, L, FixedCount(0))
        assert_allclose(fit.coefficients["delta_ell"], -2.1, atol=1e-6)

    def test_far_shift_recovery(self):
        # a bounded Brent search stops within about 1.5e-8 |dl| of the
        # minimum (7e-6 here); the rescans of the scan bracket do not widen
        L = 40000
        ells = np.arange(10, 401, 10, dtype=float)
        y = self.model(ells, L, -1 / 3, -0.8, 6000.0)
        fit = pc.cc_fit_obc(ells, y, L, FixedCount(0))
        assert abs(fit.coefficients["delta_ell"] - 6000.0) <= 1e-7

    @pytest.mark.parametrize("L, ells", [(20, np.arange(1.0, 11.0)),
                                         (200, np.arange(4.0, 101.0))])
    def test_shift_at_the_feasibility_bound(self, L, ells):
        # the planted shift lies just below the lowest feasible one,
        # -min(l)/2 + 1e-6, so the SSE falls all the way to that bound
        lo, hi = -ells.min() / 2 + 1e-6, L / 4
        y = self.model(ells, L, -1 / 3, -0.8, -ells.min() / 2 + 1e-7)
        fit = pc.cc_fit_obc(ells, y, L, FixedCount(0))
        dl = fit.coefficients["delta_ell"]
        assert lo <= dl <= hi
        at_fit, at_bound = _shift_grid_sse(ells, y, float(L), np.array([dl, lo]))
        assert at_fit <= at_bound

    def test_rmse_trim_stops_at_threshold(self):
        L = 200
        ells = np.arange(1, 101, dtype=float)
        y = self.model(ells, L, -1 / 3, -0.8, 0.5)
        y[:4] += np.array([0.4, 0.2, 0.1, 0.05])
        fit = pc.cc_fit_obc(ells, y, L, UntilRMSE(1e-6))
        assert fit.trim_count == 4
        assert abs(fit.coefficients["c_over_6"] + 1 / 3) < 1e-6

    def test_stall_returns_best_effort(self):
        # data with an un-fittable smooth perturbation: the 1e-4 threshold
        # is unreachable and trimming must stop at the improvement elbow
        L = 200
        rng = np.random.default_rng(1)
        ells = np.arange(1, 101, dtype=float)
        y = self.model(ells, L, -1 / 3, -0.8, 0.5) + 5e-4 * np.cos(ells / 7.0)
        fit = pc.cc_fit_obc(ells, y, L, UntilRMSE(1e-4, stall=0.10))
        assert fit.rmse < 5e-3
        assert fit.n_points >= 5
        assert abs(fit.coefficients["c_over_6"] + 1 / 3) < 0.01

    def test_isolated_minimum_in_shift(self):
        # SSE has positive curvature at the fitted shift
        L = 100
        ells = np.arange(4, 51, dtype=float)
        y = self.model(ells, L, -0.33, 0.0, 0.9)
        fit = pc.cc_fit_obc(ells, y, L, FixedCount(0))
        dl = fit.coefficients["delta_ell"]

        def sse(d):
            x = np.log(np.sin(np.pi * (ells + 2 * d) / (L + 2 * d)))
            X = np.vstack([x, np.ones_like(x)]).T
            coef, *_ = np.linalg.lstsq(X, y, rcond=None)
            r = y - X @ coef
            return r @ r

        h = 1e-3
        curvature = sse(dl + h) + sse(dl - h) - 2 * sse(dl)
        assert curvature > 0

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            pc.cc_fit_obc([3, 4, 5, 6], [1, 2, 3, 4], 50, FixedCount(0))

    def test_rmse_trim_out_of_points_returns_previous_fit(self):
        # the contaminated first point goes, the rest keeps an unreachable
        # RMSE; the next trim step would leave 4 points
        L = 60
        ells = np.arange(4.0, 10.0)
        rng = np.random.default_rng(3)
        y = self.model(ells, L, -1 / 3, -0.8, 0.5) + 1e-3 * rng.standard_normal(6)
        y[0] += 0.3
        fit = pc.cc_fit_obc(ells, y, L, UntilRMSE(1e-12))
        assert fit == pc.cc_fit_obc(ells, y, L, FixedCount(1))
        assert fit.rmse > 1e-12 and fit.n_points == 5

    def test_rmse_trim_below_minimum_raises(self):
        ells = np.arange(4.0, 8.0)
        with pytest.raises(InsufficientPoints, match="4 points left after trimming 0"):
            pc.cc_fit_obc(ells, self.model(ells, 60, -1 / 3, -0.8, 0.5), 60,
                          UntilRMSE())

    @pytest.mark.parametrize("noise", [0.0, 1e-9, 1e-5, 1e-2])
    @pytest.mark.parametrize("dl", [-2.1, 0.5, 3.0])
    def test_shift_grid_matches_per_shift_fits(self, dl, noise):
        # the one-pass grid against a per-shift least-squares fit; shifts
        # below -ells.min() / 2 are infeasible on both
        L = 120
        ells = np.arange(5, 61, dtype=float)
        rng = np.random.default_rng(7)
        y = self.model(ells, L, -0.34, 0.2, dl) + noise * rng.standard_normal(len(ells))
        grid = np.linspace(-10.0, L / 4.0, 512)
        fast = _shift_grid_sse(ells, y, float(L), grid)
        designs = (_shifted_cc_design(ells, float(L), d) for d in grid)
        loop = np.array([np.inf if X is None else
                         _linear_fit(X, y, ["c_over_6", "s0"], "", 0).sse
                         for X in designs])
        np.testing.assert_array_equal(np.isinf(fast), np.isinf(loop))
        assert np.isinf(fast[0]) and np.isfinite(fast[-1])
        # rounding of the centred sums: a few ulps of sum (y - mean)^2
        scale = np.sum((y - y.mean()) ** 2)
        finite = np.isfinite(loop)
        assert_allclose(fast[finite], loop[finite], rtol=1e-10,
                        atol=1e3 * np.finfo(float).eps * scale)
        assert np.argmin(fast) == np.argmin(loop)


class TestCasimirFit:
    def test_pbc_synthetic(self):
        sizes = np.arange(64, 513, 64)
        y = -1.8 * sizes + 1.4809 / sizes
        fit = pc.casimir_fit(sizes, y, "pbc")
        assert_allclose(fit.coefficients["eps_bulk"], -1.8, atol=1e-10)
        assert_allclose(fit.coefficients["slope"], 1.4809, atol=1e-8)

    def test_obc_synthetic_with_known_shift(self):
        sizes = np.arange(64, 513, 64)
        y = -1.8 * sizes + 0.7 + 0.37 / (sizes - 2)
        fit = pc.casimir_fit(sizes, y, "obc", delta_L=-2)
        assert_allclose(fit.coefficients["slope"], 0.37, atol=1e-10)
        assert_allclose(fit.coefficients["b"], 0.7, atol=1e-10)

    def test_scan_finds_planted_shift(self):
        sizes = np.arange(64, 513, 64)
        y = -1.8 * sizes + 0.7 + 0.37 / (sizes + 3)
        fit = pc.casimir_fit(sizes, y, "obc", delta_L=None)
        assert fit.coefficients["delta_L"] == 3.0
        assert fit.sse < 1e-20

    def test_insufficient_sizes(self):
        with pytest.raises(InsufficientPoints):
            pc.casimir_fit([64, 128, 192], [1, 2, 3], "pbc")

    def test_energy_table_asserts_real(self):
        spec = pc.ChainSpec(v=1, w=2, u=1, cells=64)
        sizes, energies = pc.casimir_energy_table(spec, [32, 64, 96])
        assert len(sizes) == 3
        assert energies.dtype == np.float64

    def test_energy_table_refuses_non_integral_sizes(self, monkeypatch):
        # refused before any energy is computed, not truncated to L = 8
        monkeypatch.setattr(pc.fits, "ground_state_energy", None)
        spec = pc.ChainSpec(v=1, w=2, u=1, cells=8, boundary=pc.Boundary.OBC)
        with pytest.raises(ValueError, match=r"must be integers, got \[8\.7, 10"):
            pc.casimir_energy_table(spec, [8.7, 10, 12, 14])

    def test_energy_table_takes_integral_floats_and_numpy_integers(self):
        spec = pc.ChainSpec(v=1, w=2, u=1, cells=8, boundary=pc.Boundary.OBC)
        sizes, energies = pc.casimir_energy_table(spec, [12.0, np.int64(8), 10])
        np.testing.assert_array_equal(sizes, [8, 10, 12])
        ref_sizes, ref = pc.casimir_energy_table(spec, [8, 10, 12])
        np.testing.assert_array_equal(energies, ref)

    def test_repeated_sizes_count_once(self):
        # four copies of one size are one point: the table keeps it once,
        # and neither it nor four copies make a Casimir fit
        spec = pc.ChainSpec(v=1, w=2, u=1, cells=8, boundary=pc.Boundary.OBC)
        sizes, energies = pc.casimir_energy_table(spec, [16, 16, 16, 16])
        np.testing.assert_array_equal(sizes, [16])
        assert len(energies) == 1
        for boundary in ("pbc", "obc"):
            with pytest.raises(InsufficientPoints, match="1 distinct sizes"):
                pc.casimir_fit([16] * 4, [energies[0]] * 4, boundary)
        with pytest.raises(InsufficientPoints, match="3 distinct sizes"):
            pc.casimir_fit([16, 16, 24, 32], [1.0, 1.0, 2.0, 3.0], "pbc")

    @pytest.mark.parametrize("bad", [True, "12", np.bool_(True)])
    def test_energy_table_refuses_bools_and_strings(self, monkeypatch, bad):
        monkeypatch.setattr(pc.fits, "ground_state_energy", None)
        spec = pc.ChainSpec(v=1, w=2, u=1, cells=8, boundary=pc.Boundary.OBC)
        with pytest.raises(ValueError, match="must be integers"):
            pc.casimir_energy_table(spec, [bad, 10, 14, 16])

    def test_energy_table_passes_tol_zero(self, monkeypatch):
        seen = []

        def recording_energy(spec, tol_zero):
            seen.append(tol_zero)
            return real(spec, tol_zero)

        real = pc.fits.ground_state_energy
        monkeypatch.setattr(pc.fits, "ground_state_energy", recording_energy)
        spec = pc.ChainSpec(v=1, w=2, u=1, cells=8, boundary=pc.Boundary.OBC)
        pc.casimir_energy_table(spec, [8, 12], tol_zero=1e-7)
        assert seen == [1e-7, 1e-7]


class TestSplitMix64:
    def test_reference_stream(self):
        # first outputs from seed 1234567 must never change across platforms
        gen = SplitMix64(1234567)
        first = [gen.next_u64() for _ in range(3)]
        assert first == [6457827717110365317, 3203168211198807973,
                         9817491932198370423]

    def test_uniform_range_and_determinism(self):
        a = disorder_offsets(42, 0.999, 1000)
        b = disorder_offsets(42, 0.999, 1000)
        assert np.array_equal(a, b)
        assert np.all(np.abs(a) < 0.999)
        assert abs(np.mean(a)) < 0.05


openblas = pytest.mark.skipif(spectral._scipy_lapack().get_threads is None,
                              reason="scipy's BLAS exports no thread control")


class TestDisorderEnsemble:
    @staticmethod
    def template(cells=40):
        return pc.ChainSpec(v=1, w=2, u=1, cells=cells, detuning=1e-10)

    def test_determinism_bitwise(self):
        kw = dict(delta_bound=0.9, n_realizations=3, base_seed=7, ells=[4, 8])
        a = pc.disorder_ensemble(self.template(), **kw)
        b = pc.disorder_ensemble(self.template(), **kw)
        assert np.array_equal(a.re_values, b.re_values)
        assert np.array_equal(a.im_values, b.im_values)

    def test_imaginary_part_quantized_per_realization(self):
        stats = pc.disorder_ensemble(self.template(), 0.9, 5, 11, [4, 8, 12])
        assert np.max(np.abs(stats.im_values + np.pi)) < 1e-6

    def test_sem_definition(self):
        stats = pc.disorder_ensemble(self.template(), 0.9, 4, 3, [6])
        manual = stats.re_values.std(axis=0, ddof=1) / 2.0
        assert_allclose(stats.sem_re, manual, atol=0)

    def test_worker_count_invariance(self, scipy_threads):
        # every realization runs on one BLAS thread and restores the count
        # it found, in a worker or not: neither the worker count nor the
        # caller's thread count moves a bit, and the caller keeps its count
        control = spectral._scipy_lapack()
        kw = dict(delta_bound=0.9, n_realizations=4, base_seed=5, ells=[4, 8])
        serial = pc.disorder_ensemble(self.template(), **kw, jobs=1)
        for threads in (1, 2):
            scipy_threads(threads)
            for jobs in (1, 2, None):
                other = pc.disorder_ensemble(self.template(), **kw, jobs=jobs)
                assert np.array_equal(serial.re_values, other.re_values)
                assert np.array_equal(serial.im_values, other.im_values)
                assert control.get_threads is None or control.get_threads() == threads

    @pytest.mark.parametrize("n_realizations, cpus, workers",
                             [(3, 4, 3), (8, 4, 4), (8, 1, None)])
    def test_worker_count_is_capped(self, monkeypatch, n_realizations, cpus,
                                    workers):
        # jobs = 64 asks for 64 forks; the pool gets min(jobs, realizations,
        # CPUs), jobs = None min(CPUs, realizations), and one worker runs
        # serially, without a pool
        import concurrent.futures

        pools = []

        class FakePool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)  # in this process: no worker starts

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)
        kw = dict(delta_bound=0.9, n_realizations=n_realizations, base_seed=5,
                  ells=[4])
        serial = pc.disorder_ensemble(self.template(cells=8), **kw, jobs=1)
        for jobs in (64, None):
            pools.clear()
            capped = pc.disorder_ensemble(self.template(cells=8), **kw, jobs=jobs)
            assert pools == ([] if workers is None else [workers])
            assert capped.workers == (1 if workers is None else workers)
            assert np.array_equal(capped.re_values, serial.re_values)

    @pytest.mark.parametrize("jobs", [0, -1])
    def test_jobs_below_one_refused(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            pc.disorder_ensemble(self.template(), 0.9, 2, 0, [4], jobs=jobs)

    @staticmethod
    def thread_count_profile(*args, **kwargs):
        """A stand-in profile whose one value is the BLAS thread count of
        the process that ran the realization."""
        threads = ctypes.CDLL(scipy.linalg._fblas.__file__).scipy_openblas_get_num_threads()
        return SimpleNamespace(values=np.array([threads], dtype=complex))

    @openblas
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_realizations_run_on_one_blas_thread(self, monkeypatch, jobs):
        monkeypatch.setattr(pc.fits, "entropy_profile", self.thread_count_profile)
        stats = pc.disorder_ensemble(self.template(), 0.9, 4, 0, [4], jobs=jobs)
        assert stats.workers == min(jobs, pc.fits._usable_cpus())
        assert np.all(stats.re_values == 1.0)

    @staticmethod
    def os_thread_profile(*args, **kwargs):
        """A stand-in profile whose one value is the number of OS threads of
        the process that ran the realization."""
        return SimpleNamespace(values=np.array([len(os.listdir("/proc/self/task"))],
                                               dtype=complex))

    @openblas
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc")
    def test_forked_workers_start_no_blas_thread(self, monkeypatch, scipy_threads):
        # the pool is pinned before the fork, so a worker inherits one thread
        # and its realizations' pins call nothing: setting the count in a
        # forked OpenBLAS starts a helper thread, which spun beside the
        # worker's first realization
        if pc.fits._usable_cpus() < 2:
            pytest.skip("one usable CPU runs no pool")
        scipy_threads(2)
        monkeypatch.setattr(pc.fits, "entropy_profile", self.os_thread_profile)
        stats = pc.disorder_ensemble(self.template(), 0.9, 4, 0, [4], jobs=2)
        assert stats.workers == 2
        assert np.all(stats.re_values == 1.0)
        assert spectral._scipy_lapack().get_threads() == 2

    @openblas
    def test_pin_at_one_thread_calls_nothing(self, scipy_threads):
        def refused(n):
            raise AssertionError(f"set_threads({n}) called")

        scipy_threads(1)
        lapack = spectral._scipy_lapack()._replace(set_threads=refused)
        with spectral._one_blas_thread(lapack):
            pass

    @openblas
    @pytest.mark.parametrize("fails", [False, True])
    def test_serial_run_restores_caller_thread_count(self, monkeypatch, scipy_threads,
                                                     fails):
        def failing_profile(*args, **kwargs):
            raise NoConvergence("no convergence")

        if fails:
            monkeypatch.setattr(pc.fits, "entropy_profile", failing_profile)
        scipy_threads(3)
        with pytest.raises(NoConvergence) if fails else contextlib.nullcontext():
            pc.disorder_ensemble(self.template(), 0.9, 2, 0, [4], jobs=1)
        assert spectral._scipy_lapack().get_threads() == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_runs_without_blas_thread_control(self, monkeypatch, jobs):
        # a scipy whose BLAS exports no thread control: nothing is pinned,
        # nothing raises, and the ensemble is the same physics
        lapack = spectral._scipy_lapack()._replace(get_threads=None, set_threads=None)
        for module in (spectral, pc.fits):
            monkeypatch.setattr(module, "_scipy_lapack", lambda: lapack)
        stats = pc.disorder_ensemble(self.template(), 0.9, 3, 11, [4, 8], jobs=jobs)
        assert np.max(np.abs(stats.im_values + np.pi)) < 1e-6

    def test_no_worker_process_outlives_the_call(self):
        pc.disorder_ensemble(self.template(), 0.9, 4, 0, [4], jobs=2)
        assert multiprocessing.active_children() == []

    def test_bound_validation(self):
        with pytest.raises(ValueError):
            pc.disorder_ensemble(self.template(), 1.5, 2, 0, [4])

    def test_sizes_must_be_integral(self, monkeypatch):
        # refused before any realization runs, not truncated to 2
        monkeypatch.setattr(pc.fits, "entropy_profile", None)
        with pytest.raises(ValueError, match="must be integers"):
            pc.disorder_ensemble(self.template(), 0.9, 2, 0, [2.7, 4])

    @pytest.mark.parametrize("n_realizations", [0, 1])
    def test_standard_error_needs_two_realizations(self, n_realizations):
        # ddof=1 over one realization is a NaN standard error, not a result
        with pytest.raises(ValueError, match="n_realizations >= 2"):
            pc.disorder_ensemble(self.template(), 0.9, n_realizations, 0, [4])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_foreign_failure_keeps_its_arguments(self, monkeypatch, jobs):
        # worker processes pickle the exception back as type(exc)(*exc.args),
        # so the arguments must stay those of the constructor
        def failing_profile(*args, **kwargs):
            raise TwoArgError(7, "no convergence")

        monkeypatch.setattr(pc.fits, "entropy_profile", failing_profile)
        with pytest.raises(TwoArgError) as info:
            pc.disorder_ensemble(self.template(), 0.9, 2, 40, [4], jobs=jobs)
        assert info.value.args == (7, "no convergence")
        assert info.value.__notes__ == ["realization 0 (seed 40)"]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_package_failure_names_realization(self, monkeypatch, jobs):
        def failing_profile(*args, **kwargs):
            raise NoConvergence("no convergence")

        monkeypatch.setattr(pc.fits, "entropy_profile", failing_profile)
        with pytest.raises(NoConvergence,
                           match=r"^realization 0 \(seed 40\): no convergence$"):
            pc.disorder_ensemble(self.template(), 0.9, 2, 40, [4], jobs=jobs)

    def test_tol_zero_reaches_entropy_profile(self, monkeypatch):
        seen = []

        def recording_profile(*args, **kwargs):
            seen.append(args[4])
            return real(*args, **kwargs)

        real = pc.fits.entropy_profile
        monkeypatch.setattr(pc.fits, "entropy_profile", recording_profile)
        # the spy records in this process: the serial path
        pc.disorder_ensemble(self.template(), 0.9, 2, 40, [4], jobs=1, tol_zero=1e-7)
        assert seen == [1e-7, 1e-7]


class TwoArgError(Exception):
    """A foreign exception type whose constructor takes two arguments."""

    def __init__(self, code, detail):
        super().__init__(code, detail)
