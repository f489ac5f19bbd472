import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import ptchain as pc
from ptchain.errors import DisorderPresent, SpecTooSmall, UnsupportedCouplings
from ptchain.lattice import _hopping_block, _open_bidiagonal


def chain(alpha=1, v=1.0, w=1.0, u=0.0, cells=None, boundary="pbc", **kw):
    return pc.ChainSpec(
        alpha=alpha,
        v=v,
        w=w,
        u=u,
        cells=cells if cells is not None else alpha + 3,
        boundary=pc.Boundary(boundary),
        **kw,
    )


def multiset_distance(a, b):
    """max over b of the distance to the nearest element of a."""
    a = np.asarray(a)[None, :]
    b = np.asarray(b)[:, None]
    return float(np.max(np.min(np.abs(a - b), axis=1)))


class TestBlochHamiltonian:
    def test_simple_critical_dimer(self):
        h = pc.bloch_hamiltonian(chain(v=2, w=1, u=1, detuning=0.0), 0.0)
        assert_allclose(h, [[1j, 1], [1, -1j]], atol=1e-15)

    def test_hermitian_at_pi(self):
        h = pc.bloch_hamiltonian(chain(v=1, w=2, u=0), np.pi)
        assert_allclose(h, [[0, 3], [3, 0]], atol=1e-12)

    def test_alpha2_quarter_zone(self):
        h = pc.bloch_hamiltonian(chain(alpha=2, v=1, w=2, u=1, detuning=0.0), np.pi / 2)
        assert_allclose(h, [[1j, 2 - 1j], [2 + 1j, -1j]], atol=1e-12)

    def test_rejects_disorder(self):
        spec = chain(v=1, w=2, u=0.5, cells=4,
                     disorder=pc.DisorderProfile(np.zeros(4) + 0.1))
        with pytest.raises(DisorderPresent):
            pc.bloch_hamiltonian(spec, 0.0)

    @given(
        v=st.floats(0.1, 3), w=st.floats(0.1, 3), u=st.floats(0, 2),
        alpha=st.integers(1, 4), k=st.floats(-np.pi, np.pi),
    )
    @settings(max_examples=60)
    def test_pt_symmetry_identity(self, v, w, u, alpha, k):
        # sigma_x H(k)* sigma_x = H(k), exactly
        spec = pc.ChainSpec(alpha=alpha, v=v, w=w, u=u, cells=alpha + 2, detuning=0.0)
        h = pc.bloch_hamiltonian(spec, k)
        sx = np.array([[0, 1], [1, 0]])
        assert_allclose(sx @ h.conj() @ sx, h, atol=0)


class TestDispersion:
    def test_critical_point_gapless(self):
        e = pc.dispersion(chain(v=2, w=1, u=1, detuning=0.0), 0.0)
        assert abs(e[0]) < 1e-12 and abs(e[1]) < 1e-12

    def test_real_pair(self):
        e = pc.dispersion(chain(v=1, w=2, u=1, detuning=0.0), np.pi)
        assert_allclose([e[0], e[1]], [np.sqrt(8), -np.sqrt(8)], atol=1e-12)

    def test_imaginary_pair_in_broken_phase(self):
        e = pc.dispersion(chain(v=1, w=1.2, u=1), 0.0)
        assert_allclose(e[0], 1j * np.sqrt(0.96), atol=1e-12)
        assert_allclose(e[1], -1j * np.sqrt(0.96), atol=1e-12)


class TestClassifyPT:
    def test_symmetric(self):
        assert pc.classify_pt(chain(v=2, w=1, u=0.5)) is pc.PTClass.SYMMETRIC

    def test_critical_line(self):
        assert pc.classify_pt(chain(v=1, w=2, u=1, detuning=0.0)) is pc.PTClass.CRITICAL

    def test_broken(self):
        assert pc.classify_pt(chain(v=1, w=1.2, u=1)) is pc.PTClass.BROKEN

    def test_negative_couplings_flagged_not_refused(self):
        with pytest.warns(UnsupportedCouplings):
            out = pc.classify_pt(chain(v=1, w=-2, u=0.5))
        assert out is pc.PTClass.SYMMETRIC  # min |v_k| = |v + w| = 1 > 0.5

    @pytest.mark.parametrize("v, w", [(0.5, 0.0), (0.0, 0.5), (1.0, -2.0), (-0.3, 0.7),
                                      (0.1, -0.1), (1e-3, -7.0), (-2.5, 0.0), (3.3, -1.1)])
    def test_nonpositive_vw_minimum_is_the_smallest_candidate(self, v, w):
        # |v + w| is the smallest of |v + w|, |v - w| and hypot(v, w), bit
        # for bit, whenever v w <= 0
        with pytest.warns(UnsupportedCouplings):
            found = pc.min_abs_vk(chain(v=v, w=w, u=0.1))
        assert found.hex() == float(min(abs(v + w), abs(v - w), np.hypot(v, w))).hex()

    @given(v=st.floats(0.1, 3), w=st.floats(0.1, 3), u=st.floats(0, 2.9))
    @settings(max_examples=60)
    def test_vw_swap_invariance(self, v, w, u):
        a = pc.classify_pt(pc.ChainSpec(v=v, w=w, u=u, cells=3, detuning=0.0))
        b = pc.classify_pt(pc.ChainSpec(v=w, w=v, u=u, cells=3, detuning=0.0))
        assert a is b


class TestAutoDetuning:
    def test_applied_on_the_critical_line(self):
        assert chain(v=1, w=2, u=1).detuning == pc.lattice.CRITICAL_DETUNING

    def test_zero_off_criticality(self):
        assert chain(v=2, w=1, u=0.5).detuning == 0.0

    def test_zero_for_hermitian(self):
        assert chain(v=1, w=1, u=0.0).detuning == 0.0

    def test_capped_at_u(self):
        # u below CRITICAL_DETUNING on the v = w critical line
        spec = chain(v=1, w=1, u=1e-13)
        assert spec.detuning == 1e-13
        assert spec.u_eff == 0.0

    def test_explicit_value_kept(self):
        assert chain(v=1, w=2, u=1, detuning=1e-7).detuning == 1e-7


class TestBuildRealSpace:
    def test_decoupled_dimers(self):
        h = pc.build_real_space(chain(v=1, w=0, u=0, cells=2, boundary="obc"))
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 1
        expected[2, 3] = expected[3, 2] = 1
        assert_allclose(h, expected, atol=0)

    def test_fully_dimerized_limit(self):
        h = pc.build_real_space(chain(v=0, w=1, u=0, cells=2, boundary="obc"))
        # one central bond A(1)-B(2) with amplitude -1, dangling B(1), A(2)
        expected = np.zeros((4, 4))
        expected[0, 3] = expected[3, 0] = -1
        assert_allclose(h, expected, atol=0)

    def test_pbc_spectrum_equals_dispersion_critical(self):
        # detuned critical chain: k = 0 sits next to the exceptional point,
        # where double-precision eigenvalues carry a ~1e-10 condition floor
        spec = chain(v=2, w=1, u=1, cells=3)
        h = pc.build_real_space(spec)
        ev = np.linalg.eigvals(h)
        ks = 2 * np.pi * np.arange(3) / 3
        expected = np.concatenate([pc.dispersion(spec, k) for k in ks])
        assert multiset_distance(ev, expected) < 1e-9

    @pytest.mark.parametrize("alpha,v,w,u,L", [(1, 2, 1, 0.5, 5), (2, 1, 2, 1.3, 6),
                                               (1, 1, 1.2, 1.0, 7)])
    def test_pbc_spectrum_equals_dispersion_gapped(self, alpha, v, w, u, L):
        spec = chain(alpha=alpha, v=v, w=w, u=u, cells=L, detuning=0.0)
        h = pc.build_real_space(spec)
        ev = np.linalg.eigvals(h)
        ks = 2 * np.pi * np.arange(L) / L
        expected = np.concatenate([pc.dispersion(spec, k) for k in ks])
        assert multiset_distance(ev, expected) < 1e-10

    @pytest.mark.parametrize("alpha,boundary", [(1, "pbc"), (2, "pbc"), (3, "obc")])
    def test_pseudo_hermiticity(self, alpha, boundary):
        # sigma_z H^dag sigma_z = -H even with disorder
        rng = np.random.default_rng(7)
        cells = alpha + 6
        spec = pc.ChainSpec(
            alpha=alpha, v=1.0, w=2.0, u=1.0, cells=cells,
            boundary=pc.Boundary(boundary),
            disorder=pc.DisorderProfile(rng.uniform(-0.5, 0.5, cells)),
            detuning=1e-10,
        )
        h = pc.build_real_space(spec)
        sz = np.where(np.arange(2 * cells) % 2 == 0, 1.0, -1.0)
        assert_allclose(sz[:, None] * h.conj().T * sz[None, :], -h, atol=0)

    def test_too_small_raises(self):
        with pytest.raises(SpecTooSmall):
            pc.ChainSpec(alpha=3, v=1, w=1, u=0, cells=3)

    @pytest.mark.parametrize("field, value", [("alpha", 1.5), ("cells", 6.0),
                                              ("cells", True), ("alpha", "2")])
    def test_sizes_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            pc.ChainSpec(**{"v": 1, "w": 2, "u": 1, "cells": 6, field: value})

    def test_numpy_integer_sizes_build(self):
        spec = pc.ChainSpec(alpha=np.int64(2), v=1, w=2, u=1, cells=np.int32(6))
        assert pc.build_real_space(spec).shape == (12, 12)

    def test_disorder_bound_enforced(self):
        with pytest.raises(ValueError):
            pc.ChainSpec(v=1, w=2, u=1, cells=4,
                         disorder=pc.DisorderProfile([0.0, 0.0, 1.5, 0.0]))

    # a NaN would otherwise reach LAPACK, which prints to stderr and fails
    # as a DefectiveMatrix whose advice (increase the detuning) cannot help
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["v", "w", "u", "detuning"])
    def test_couplings_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            pc.ChainSpec(**{"v": 1, "w": 2, "u": 1, "cells": 6, field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_disorder_offsets_must_be_finite(self, value):
        with pytest.raises(ValueError, match="disorder offsets must be finite, got .* in cell 2"):
            pc.ChainSpec(v=1, w=2, u=1, cells=4,
                         disorder=pc.DisorderProfile([0.0, 0.1, value, 0.0]))


class TestOpenBidiagonal:
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    @pytest.mark.parametrize("v, w", [(1.0, 2.0), (2.0, 1.0), (0.5, 0.3)])
    def test_hopping_block_embeds_it(self, alpha, v, w):
        # V = [[0, B], [0, 0]]: alpha - 1 zero columns on the left and zero
        # rows at the bottom around the upper-bidiagonal n x n block B
        L, n = 9, 9 - alpha + 1
        spec = chain(alpha=alpha, v=v, w=w, u=0.5, cells=L, boundary="obc")
        d, e = _open_bidiagonal(spec)
        assert (d.shape, e.shape) == ((n,), (n - 1,))
        embedded = np.zeros((L, L))
        embedded[:n, alpha - 1:] = np.diag(d) + np.diag(e, 1)
        assert np.array_equal(_hopping_block(spec), embedded)
        assert np.all(d == v) and np.all(e == -w)


class TestBuildInterface:
    def test_hermitian_limit_real_spectrum(self):
        spec = pc.InterfaceSpec(v1=1.3, v2=1.3, w=1.0, u=0.0,
                                cells_left=6, cells_right=6)
        h = pc.build_interface(spec)
        assert_allclose(h, h.conj().T, atol=0)
        assert np.max(np.abs(np.linalg.eigvals(h).imag)) < 1e-12

    def test_left_block_hermitian_right_block_lossy(self):
        spec = pc.InterfaceSpec(v1=1.5, v2=0.5, w=1.0, u=0.5,
                                cells_left=4, cells_right=4)
        h = pc.build_interface(spec)
        assert_allclose(np.diag(h)[: 2 * 4], 0, atol=0)
        assert_allclose(np.diag(h)[2 * 4 :: 2], 1j * 0.5, atol=0)
        assert_allclose(np.diag(h)[2 * 4 + 1 :: 2], -1j * 0.5, atol=0)
        # single joining bond between the blocks
        cross = h[: 8, 8:]
        assert np.count_nonzero(cross) == 1

    @pytest.mark.parametrize("field, value", [("cells_left", 10.5),
                                              ("cells_right", 8.0),
                                              ("cells_left", False)])
    def test_sizes_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            pc.InterfaceSpec(v1=1.5, v2=0.5, w=1.0, u=0.5, **{field: value})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["v1", "v2", "w", "u"])
    def test_couplings_must_be_finite(self, field, value):
        couplings = {"v1": 1.5, "v2": 0.5, "w": 1.0, "u": 0.5, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            pc.InterfaceSpec(**couplings)

    def test_infinite_mass_is_valid(self):
        spec = pc.InterfaceSpec(v1=100.0, v2=0.5, w=1.0, u=0.5)
        h = pc.build_interface(spec)
        assert h.shape == (80, 80)
        assert np.all(np.isfinite(h))
