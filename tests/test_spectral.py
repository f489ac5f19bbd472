import numpy as np
import pytest
from numpy.testing import assert_allclose

import ptchain as pc
from ptchain.errors import AmbiguousFilling, DefectiveMatrix


class TestBiorthogonalDiagonalize:
    def test_hermitian_dimer(self):
        out = pc.biorthogonal_diagonalize(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(out.energies, [-1, 1], atol=1e-14)
        assert out.biorth_residual < 1e-12

    def test_exact_exceptional_point_is_defective(self):
        with pytest.raises(DefectiveMatrix):
            pc.biorthogonal_diagonalize(np.array([[1j, 1.0], [1.0, -1j]]))

    def test_gapped_dimer_hand_solve(self):
        out = pc.biorthogonal_diagonalize(np.array([[1j, 2.0], [2.0, -1j]]))
        assert_allclose(out.energies, [-np.sqrt(3), np.sqrt(3)], atol=1e-12)
        gram = out.left_vectors.conj().T @ out.right_vectors
        assert_allclose(gram, np.eye(2), atol=1e-12)

    def test_eigen_relations_and_ordering(self):
        spec = pc.ChainSpec(v=1, w=2, u=1, cells=8, boundary=pc.Boundary.OBC)
        h = pc.build_real_space(spec)
        out = pc.biorthogonal_diagonalize(h)
        for n in range(out.n):
            assert_allclose(h @ out.right_vectors[:, n],
                            out.energies[n] * out.right_vectors[:, n], atol=1e-10)
            assert_allclose(h.conj().T @ out.left_vectors[:, n],
                            np.conj(out.energies[n]) * out.left_vectors[:, n],
                            atol=1e-9)
        key = np.lexsort((out.energies.imag, out.energies.real))
        assert np.array_equal(key, np.arange(out.n))

    def test_degenerate_edge_block_resolved(self):
        # alpha=2 open chain at its higher-winding critical point hosts two
        # nearly-degenerate modes at each of +-iu
        spec = pc.ChainSpec(alpha=2, v=1, w=2, u=1, cells=24,
                            boundary=pc.Boundary.OBC, detuning=0.0)
        out = pc.biorthogonal_diagonalize(pc.build_real_space(spec))
        assert out.biorth_residual < 1e-9
        edge = np.abs(out.energies.real) < 1e-8
        assert np.count_nonzero(edge) == 4

    @pytest.mark.parametrize("boundary", [pc.Boundary.OBC, pc.Boundary.PBC])
    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_fully_broken_chain(self, alpha, boundary):
        # u > v + w: every E is purely imaginary, so every eigenvalue of the
        # real gauge matrix is real and LAPACK returns real eigenvectors
        spec = pc.ChainSpec(alpha=alpha, v=1, w=2, u=4, cells=10,
                            boundary=boundary)
        h = pc.build_real_space(spec)
        out = pc.biorthogonal_diagonalize(h)
        assert out.biorth_residual < 1e-9
        assert np.all(out.energies.real == 0.0)
        assert_allclose(np.sort(np.abs(out.energies.imag)),
                        np.sort(np.abs(np.linalg.eigvals(h))), atol=1e-10)
        R, L = out.right_vectors, out.left_vectors
        assert_allclose(h @ R, R * out.energies, atol=1e-10)
        assert_allclose(h.conj().T @ L, L * out.energies.conj(), atol=1e-10)

    def test_ph_pairing_residual_with_disorder(self):
        rng = np.random.default_rng(3)
        spec = pc.ChainSpec(
            v=1.0, w=2.0, u=1.0, cells=24, boundary=pc.Boundary.OBC,
            disorder=pc.DisorderProfile(rng.uniform(-0.9, 0.9, 24)),
            detuning=1e-10,
        )
        E = np.linalg.eigvals(pc.build_real_space(spec))
        assert pc.ph_pairing_residual(E) < 1e-8


class TestHalfFilling:
    def test_hermitian_dimers(self):
        spec = pc.ChainSpec(v=1, w=0.0001, u=0, cells=2, boundary=pc.Boundary.OBC)
        sys_ = pc.biorthogonal_diagonalize(pc.build_real_space(spec))
        occ = pc.select_half_filling(sys_)
        assert_allclose(sorted(occ.weights), [0, 0, 1, 1])
        assert occ.total == 2

    def test_edge_pair_gets_half_each(self):
        spec = pc.ChainSpec(v=1, w=2, u=1, cells=24, boundary=pc.Boundary.OBC,
                            detuning=0.0)
        sys_ = pc.biorthogonal_diagonalize(pc.build_real_space(spec))
        occ = pc.select_half_filling(sys_)
        halves = np.isclose(occ.weights, 0.5)
        assert np.count_nonzero(halves) == 2
        assert_allclose(np.abs(sys_.energies[halves].imag), 1.0, atol=1e-8)
        # net edge contribution to the energy cancels
        edge_energy = np.sum(occ.weights[halves] * sys_.energies[halves])
        assert abs(edge_energy) < 1e-10
        assert occ.total == 24

    def test_gapped_chain_all_integer_weights(self):
        spec = pc.ChainSpec(v=2, w=1, u=0.5, cells=10)
        sys_ = pc.biorthogonal_diagonalize(pc.build_real_space(spec))
        occ = pc.select_half_filling(sys_)
        assert set(np.round(occ.weights, 12)) == {0.0, 1.0}
        assert occ.total == 10

    def test_real_zero_mode_is_ambiguous(self):
        # an exactly critical periodic chain without detuning puts E = 0 on
        # the momentum grid; such spectra must be refused
        E = np.array([-1.0, -0.5, 0.0, 0.0, 0.5, 1.0])
        with pytest.raises(AmbiguousFilling):
            pc.half_filling_weights(E)

    def test_unbalanced_weights_are_ambiguous(self):
        E = np.array([-1.0, -0.5, 0.5 + 0j, 1.0, 2.0, 3.0])
        with pytest.raises(AmbiguousFilling):
            pc.half_filling_weights(E)


class TestGroundStateEnergy:
    def test_decoupled_dimers(self):
        spec = pc.ChainSpec(v=1, w=1e-9, u=0, cells=3, boundary=pc.Boundary.OBC)
        assert_allclose(pc.ground_state_energy(spec), -3.0, atol=1e-6)

    def test_kspace_matches_dense_at_l64(self):
        spec = pc.ChainSpec(v=1, w=2, u=1, cells=64)
        fast = pc.ground_state_energy(spec)
        E = np.linalg.eigvals(pc.build_real_space(spec))
        s = pc.spectral.half_filling_weights(E)
        dense = np.sum(s * E)
        assert abs(fast - dense) <= 1e-10 * abs(dense)

    def test_kspace_matches_dense_in_broken_phase(self):
        spec = pc.ChainSpec(v=1, w=1.2, u=1, cells=32)
        fast = pc.ground_state_energy(spec)
        E = np.linalg.eigvals(pc.build_real_space(spec))
        s = pc.spectral.half_filling_weights(E)
        dense = np.sum(s * E)
        assert abs(fast - dense) < 1e-10 * max(1.0, abs(dense))
        assert abs(fast.imag) < 1e-12


class TestDensityProfile:
    @staticmethod
    def _profile(spec):
        sys_ = pc.biorthogonal_diagonalize(pc.build_real_space(spec))
        occ = pc.select_half_filling(sys_)
        return pc.density_profile(sys_, occ)

    def test_pt_symmetric_pbc_cells_real(self):
        prof = self._profile(pc.ChainSpec(v=2, w=1, u=1, cells=40))
        assert np.max(np.abs(prof.cell.imag)) < 1e-8

    def test_obc_half_filling_and_imaginary_tails(self):
        prof = self._profile(
            pc.ChainSpec(v=2, w=1, u=1, cells=100, boundary=pc.Boundary.OBC)
        )
        assert np.max(np.abs(prof.cell.real - 1.0)) < 1e-6
        im = np.abs(prof.cell.imag)
        # the chain is critical: the boundary tail decays slowly, so "bulk"
        # suppression at L=100 is ~1e-4, not the gapped-chain 1e-6
        assert im.max() > 1e-2
        assert np.min(im[40:60]) < 1e-4

    def test_obc_gapped_tails_fully_localized(self):
        prof = self._profile(
            pc.ChainSpec(v=2, w=1, u=0.5, cells=100, boundary=pc.Boundary.OBC)
        )
        im = np.abs(prof.cell.imag)
        assert im.max() > 1e-3
        assert np.max(im[40:60]) < 1e-6

    def test_hermitian_densities_real(self):
        prof = self._profile(
            pc.ChainSpec(v=1.3, w=0.6, u=0, cells=12, boundary=pc.Boundary.OBC)
        )
        assert np.max(np.abs(prof.site.imag)) < 1e-12
