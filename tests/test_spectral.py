import mpmath
import numpy as np
import pytest
from numpy.testing import assert_allclose

import ptchain as pc
import ptchain.spectral as spectral
from ptchain.errors import AmbiguousFilling, DefectiveMatrix
from ptchain.lattice import _hopping_block, _open_bidiagonal
from ptchain.spectral import _bidiagonal_svd, _mode_amplitudes


class TestBiorthogonalDiagonalize:
    def test_hermitian_dimer(self):
        out = pc.biorthogonal_diagonalize(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert_allclose(out.energies, [-1, 1], atol=1e-14)
        assert out.biorth_residual < 1e-12

    def test_exact_exceptional_point_is_defective(self):
        with pytest.raises(DefectiveMatrix):
            pc.biorthogonal_diagonalize(np.array([[1j, 1.0], [1.0, -1j]]))

    def test_biorthogonality_failure_names_kappa(self):
        # no residual meets tol_biorth = 1e-20; the error gives the distance
        # kappa = sqrt(2 u detuning) / u from the exceptional point and the cure
        spec = pc.ChainSpec(v=1, w=2, u=1, cells=6)
        with pytest.raises(DefectiveMatrix,
                           match=r"kappa = 1\.4e-06 .*increase the detuning"):
            pc.biorthogonal_diagonalize(pc.build_real_space(spec), tol_biorth=1e-20)

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


def open_chain(alpha, v, w, cells, u=0.5):
    return pc.ChainSpec(alpha=alpha, v=v, w=w, u=u, cells=cells, boundary=pc.Boundary.OBC)


def random_open_chains(alpha, count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        v, w = rng.uniform(0.1, 3.0, 2)
        yield open_chain(alpha, v, w, int(rng.integers(alpha + 1, 300)))


LAPACK = spectral._numpy_lapack()


@pytest.mark.skipif(LAPACK is None, reason="numpy does not export its LAPACK")
class TestBidiagonalSvd:
    """Singular values of an open chain's hopping block from its bidiagonal
    block B, against ``np.linalg.svd`` of the whole L x L block V."""

    def test_alpha_1_takes_the_bits_of_svdvals(self):
        for spec in random_open_chains(1, 20, seed=1):
            V = _hopping_block(spec)
            assert np.array_equal(_mode_amplitudes(spec),
                                  np.linalg.svd(V, compute_uv=False))

    @pytest.mark.parametrize("alpha", [2, 3])
    def test_wider_hops_agree_with_svdvals(self, alpha):
        # measured: at most 9.2e-16 ||V||
        for spec in random_open_chains(alpha, 20, seed=alpha):
            V = _hopping_block(spec)
            a = _mode_amplitudes(spec)
            assert np.all(a[len(a) - alpha + 1:] == 0.0)  # V's zero rows and columns
            err = np.max(np.abs(a - np.linalg.svd(V, compute_uv=False)))
            assert err <= 1e-15 * np.linalg.norm(V, 2)

    @pytest.mark.parametrize("v, w", [(0.3137, 2.9871), (1.1, 1234.567)])
    def test_against_mpmath(self, v, w):
        # the chains on which dpteqr on B^T B lost accuracy; measured: 2.7e-16
        # and 1.8e-16 ||V||, the errors of svdvals
        V = _hopping_block(open_chain(1, v, w, 40))
        with mpmath.workdps(40):
            ref = sorted((float(s) for s in mpmath.svd_r(mpmath.matrix(V.tolist()),
                                                         compute_uv=False)), reverse=True)
        norm = np.linalg.norm(V, 2)
        for a in (_mode_amplitudes(open_chain(1, v, w, 40)),
                  np.linalg.svd(V, compute_uv=False)):
            assert np.max(np.abs(a - ref)) <= 5e-16 * norm

    @pytest.mark.parametrize("alpha", [1, 2, 3])
    def test_fallback_agrees(self, monkeypatch, alpha):
        spec = open_chain(alpha, 1.0, 2.0, 60)
        d, e = _open_bidiagonal(spec)
        # dqds and divide and conquer part in the last bits, as in svdvals
        # and svd; measured: at most 8.9e-16 ||B||
        values, (q, s, pt) = _bidiagonal_svd(d, e), _bidiagonal_svd(d, e, vectors=True)
        monkeypatch.setattr(spectral, "_numpy_lapack", lambda: None)
        q2, s2, pt2 = _bidiagonal_svd(d, e, vectors=True)
        norm = np.max(s)
        for other in (s, _bidiagonal_svd(d, e), s2):
            assert np.max(np.abs(other - values)) <= 2e-15 * norm
        B = np.diag(d) + np.diag(e, 1)
        for u, v, vt in ((q, s, pt), (q2, s2, pt2)):
            assert np.max(np.abs((u * v) @ vt - B)) <= 1e-14 * norm
            assert np.max(np.abs(u.T @ u - np.eye(len(d)))) <= 1e-14

    @pytest.mark.parametrize("lapack", [True, False], ids=["numpy-lapack", "fallback"])
    @pytest.mark.parametrize("vectors", [False, True])
    @pytest.mark.parametrize("d, e", [([1.0, np.nan], [0.5]), ([1.0, 2.0], [np.inf])],
                             ids=["nan", "inf"])
    def test_non_finite_refused(self, monkeypatch, lapack, vectors, d, e):
        if not lapack:
            monkeypatch.setattr(spectral, "_numpy_lapack", lambda: None)
        with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
            _bidiagonal_svd(d, e, vectors)

    @pytest.mark.parametrize("d, e", [([1.0, 2.0], [0.5, 0.5]), ([[1.0]], [])],
                             ids=["long-e", "matrix"])
    def test_malformed_refused(self, d, e):
        with pytest.raises(ValueError, match="superdiagonal"):
            _bidiagonal_svd(d, e)

    @pytest.mark.parametrize("vectors, name", [(False, "dlasq1"), (True, "dbdsdc")])
    def test_no_convergence_raises(self, monkeypatch, vectors, name):
        def failing(*args):
            args[4 if name == "dlasq1" else 13].value = 2  # info

        monkeypatch.setattr(spectral, "_numpy_lapack",
                            lambda: LAPACK._replace(**{name: failing}))
        threads = LAPACK.get_threads()
        with pytest.raises(np.linalg.LinAlgError, match=f"{name} info = 2"):
            _bidiagonal_svd([1.0, 2.0], [0.5], vectors)
        assert LAPACK.get_threads() == threads
