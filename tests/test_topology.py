import numpy as np
import pytest
from numpy.testing import assert_allclose

import ptchain as pc
from ptchain.errors import GaplessWinding, OddDimension
from ptchain.topology import _legendre_rule


def chain(alpha=1, v=1.0, w=1.0, u=0.0, cells=None, boundary="pbc", **kw):
    return pc.ChainSpec(
        alpha=alpha, v=v, w=w, u=u,
        cells=cells if cells is not None else alpha + 3,
        boundary=pc.Boundary(boundary), **kw,
    )


def _wilson_loop_raw(spec, n_k):
    ks = -np.pi + 2 * np.pi * np.arange(n_k) / n_k
    R = np.empty((n_k, 2), complex)
    Lv = np.empty((n_k, 2), complex)
    u = spec.u_eff
    for j, k in enumerate(ks):
        v = pc.vk(spec, k)
        e = np.sqrt(complex(abs(v) ** 2 - u * u))
        r = np.array([v, -(1j * u + e)])
        l = np.array([v, 1j * u - e])
        l = l / np.conj(np.vdot(l, r))
        R[j] = r
        Lv[j] = l
    total = 0.0 + 0.0j
    for j in range(n_k):
        total += 1j * np.log(np.vdot(Lv[j], R[(j + 1) % n_k]))
    return total


def wilson_loop_zak(spec, n_k=8192):
    """Discretized biorthogonal Wilson loop for the lower band.

    Independent of the analytic-connection implementation: accumulates
    i log <L_j | R_{j+1}> over biorthonormalized frames around the zone.
    The product rule converges at first order in the grid spacing, so one
    Richardson step removes the leading error.
    """
    return 2.0 * _wilson_loop_raw(spec, 2 * n_k) - _wilson_loop_raw(spec, n_k)


class TestWinding:
    @pytest.mark.parametrize(
        "alpha,v,w,expected",
        [(1, 2, 1, 0), (1, 1, 2, 1), (2, 1, 2, 2), (2, 2, 1, 1), (3, 2, 1, 2)],
    )
    def test_reference_values(self, alpha, v, w, expected):
        assert pc.winding_number(chain(alpha=alpha, v=v, w=w, u=0.3)) == expected

    def test_grid_stability_under_doubling(self):
        for n_k in (256, 512, 1024):
            spec = chain(alpha=2, v=1, w=3, u=0.5)
            assert pc.winding_number(spec, n_k) == pc.winding_number(spec, 2 * n_k)

    def test_gapless_raises(self):
        with pytest.raises(GaplessWinding):
            pc.winding_number(chain(v=1, w=1, u=1.5))

    @pytest.mark.parametrize("n_k", [100.5, True, "512", np.bool_(True)])
    def test_n_k_must_be_an_integer(self, n_k):
        # refused by the winding and by the Zak phase, not truncated or
        # read as 1; an integral float or a numpy integer is a count
        spec = chain(v=1, w=2, u=0.5)
        for call in (pc.winding_number, pc.zak_phase):
            with pytest.raises(ValueError, match="n_k must be integers"):
                call(spec, n_k)
        for good in (512.0, np.int64(512)):
            assert pc.winding_number(spec, good) == pc.winding_number(spec, 512)
            assert pc.zak_phase(spec, good) == pc.zak_phase(spec, 512)

    def test_u_independence_in_symmetric_class(self):
        for u in (0.0, 0.3, 0.8):
            assert pc.winding_number(chain(v=1, w=2, u=u)) == 1


class TestZakPhase:
    def test_trivial_side_real_part_zero(self):
        q = pc.zak_phase(chain(v=2, w=1, u=0.5))
        assert abs(q.real) < 1e-6

    def test_topological_side_real_part_pi(self):
        q = pc.zak_phase(chain(v=1, w=2, u=0.5))
        assert abs(q.real - np.pi) < 1e-6

    def test_broken_class_non_quantized(self):
        q = pc.zak_phase(chain(v=1, w=1.2, u=1))
        assert abs(q.real - np.pi * 1) > 1e-3

    @pytest.mark.parametrize("alpha,v,w,u", [(1, 2, 1, 0.5), (1, 1, 2, 0.5),
                                             (2, 1, 2, 0.8)])
    def test_against_wilson_loop_oracle(self, alpha, v, w, u):
        spec = chain(alpha=alpha, v=v, w=w, u=u)
        analytic = pc.zak_phase(spec)
        wilson = wilson_loop_zak(spec)
        # both the real quantization and the imaginary part must agree
        assert abs(analytic - wilson) < 1e-5

    def test_n_k_above_half_the_grid_cap(self):
        # sm-s1's chain: 2 n_k exceeds the 2^16 doubling cap, so the
        # quadrature must still compare once before it gives up
        spec = chain(v=1, w=2, u=0.5, cells=64)
        coarse = pc.zak_phase(spec, n_k=4096)
        assert abs(pc.zak_phase(spec, n_k=40000) - coarse) <= pc.topology.TOL_ZAK

    def test_quantization_identity(self):
        for v, w in [(2.0, 1.0), (1.0, 2.0), (1.0, 3.0)]:
            spec = chain(alpha=2, v=v, w=w, u=0.4)
            result = pc.characterize(spec)
            assert result.re_zak_deviation < 1e-6


class TestSymmetryClosure:
    def test_clean_pbc_passes_both(self):
        corr = pc.correlation_k_space(chain(v=2, w=1, u=1, cells=64), 16)
        report = pc.symmetry_closure(corr.matrix)
        assert report.t_plus_ok and report.ph_ok

    def test_obc_keeps_only_particle_hole(self):
        spec = chain(v=2, w=1, u=1, cells=64, boundary="obc")
        system = pc.biorthogonal_diagonalize(pc.build_real_space(spec))
        corr = pc.correlation_matrix(system, pc.select_half_filling(system), 16)
        report = pc.symmetry_closure(corr.matrix)
        assert not report.t_plus_ok
        assert report.ph_ok

    def test_hermitian_passes_tightly(self):
        corr = pc.correlation_k_space(chain(v=2, w=1, u=0, cells=32), 8)
        report = pc.symmetry_closure(corr.matrix)
        assert report.t_plus_residual < 1e-12
        assert report.ph_residual < 1e-12

    def test_odd_dimension_rejected(self):
        with pytest.raises(OddDimension):
            pc.symmetry_closure(np.eye(5))


@pytest.mark.parametrize("order", [200, 400])
def test_legendre_rule_integrates_polynomials_exactly(order):
    # n nodes integrate every monomial of degree <= 2n - 1; the odd ones
    # vanish by the symmetry of the nodes. roots_legendre errs by 1.6e-14
    # (order 200) and 5.0e-14 (order 400) on the even ones
    x, w = _legendre_rule(order)
    assert np.all(np.diff(x) > 0)
    assert np.max(np.abs(x + x[::-1])) <= 2e-16
    m = np.arange(order)
    moments = (w[:, None] * x[:, None] ** (2 * m)).sum(axis=0)
    assert np.max(np.abs(moments - 2.0 / (2 * m + 1))) <= 2e-15
