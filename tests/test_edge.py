import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ptchain as pc
import ptchain.edge as edge
from ptchain.errors import (
    DegenerateW,
    ExtraneousRoot,
    NoBoundState,
    NoConvergence,
    NoLocalizedMode,
    NoRootInDisk,
)


class TestContinuumEdgeRoots:
    def test_ssh_topological(self):
        out = pc.continuum_edge_roots(1, 1.0, 2.0)
        assert out.roots == (complex(-0.5),)
        assert out.normalizable_count == 1

    def test_alpha2_trivial_side(self):
        out = pc.continuum_edge_roots(2, 2.0, 1.0)
        assert sorted(r.real for r in out.roots) == [-1.0, 1.0]
        assert out.normalizable_count == 1

    def test_alpha3_topological_side(self):
        out = pc.continuum_edge_roots(3, 1.0, 2.0)
        assert sorted(r.real for r in out.roots) == [-1.0, -1.0, -0.5]
        assert out.normalizable_count == 3

    def test_kinetic_inversion_line(self):
        # v = w: the mass root lands at beta = 0, marginal, not normalizable
        out = pc.continuum_edge_roots(2, 1.0, 1.0)
        assert out.normalizable_count == 1

    def test_degenerate_w(self):
        with pytest.raises(DegenerateW):
            pc.continuum_edge_roots(2, 1.0, 0.0)

    @pytest.mark.parametrize("alpha", [1, 2, 3, 4, 5])
    def test_count_matches_winding(self, alpha):
        for v, w in [(2.0, 1.0), (1.0, 2.0)]:
            spec = pc.ChainSpec(alpha=alpha, v=v, w=w, u=0.3, cells=alpha + 4)
            assert (
                pc.continuum_edge_roots(alpha, v, w).normalizable_count
                == pc.winding_number(spec)
            )


class TestInterfaceContinuum:
    def test_matched_mass_closed_form(self):
        out = pc.interface_continuum(-0.5, 0.5)
        assert_allclose(out.E, 1j * 0.5 / np.sqrt(3), atol=1e-15)
        assert_allclose(out.a, 1 / np.sqrt(3), atol=1e-15)

    def test_infinite_mass_limit(self):
        u = 0.5
        out = pc.interface_continuum(-1e8 * u, u)
        assert abs(out.E - 1j * u) < 1e-6 * u

    def test_extraneous_root(self):
        with pytest.raises(ExtraneousRoot):
            pc.interface_continuum(3 * 0.5, 0.5)

    def test_no_bound_state_at_zero_mass(self):
        with pytest.raises(NoBoundState):
            pc.interface_continuum(0.0, 0.5)

    def test_vanishing_u_has_no_bound_state(self):
        # a rounds to 1 and the sublattice ratio would divide by zero
        with pytest.raises(NoBoundState, match="vanishes"):
            pc.interface_continuum(-1.0, 1e-20)

    def test_dispersion_residuals(self):
        # m1^2 - kappa1^2 = E^2 and m2^2 - kappa2^2 = E^2 + u^2 at m2 = u
        for m1 in (-0.1, -0.7, -3.0):
            u = 0.6
            out = pc.interface_continuum(m1, u)
            e2 = out.E**2
            assert abs(m1**2 - out.kappa1**2 - e2) < 1e-12
            assert abs(u**2 - out.kappa2**2 - (e2 + u**2)) < 1e-12

    def test_decay_toward_interface(self):
        out = pc.interface_continuum(-0.5, 0.5)
        assert out.kappa1 < 0 and out.kappa2 < 0

    def test_a_increases_with_mass_inversion_depth(self):
        u = 0.5
        m1s = -np.geomspace(1e-3, 1e3, 41)
        a = np.array([pc.interface_continuum(m, u).a for m in m1s])
        assert np.all(np.diff(a) > 0)  # monotone toward 1 as m1 -> -inf
        assert a[-1] < 1.0 and a[0] > 0.0


class TestInterfaceLatticeSolve:
    def test_reference_geometry(self):
        spec = pc.InterfaceSpec(v1=1.5, v2=0.5, w=1.0, u=0.5)
        out = pc.interface_lattice_solve(spec)
        assert abs(out.E.real) < 1e-10
        assert 0 < out.E.imag < spec.u
        assert abs(out.beta_l) < 1 and abs(out.beta_r) < 1
        assert out.residual < 1e-10

    def test_matches_dense_diagonalization(self):
        spec = pc.InterfaceSpec(v1=1.5, v2=0.5, w=1.0, u=0.5,
                                cells_left=40, cells_right=40)
        solved = pc.interface_lattice_solve(spec)
        energies = np.linalg.eigvals(pc.build_interface(spec))
        nearest = energies[np.argmin(np.abs(energies - solved.E))]
        assert abs(nearest - solved.E) < 1e-8

    def test_infinite_mass_limit_reaches_iu(self):
        spec = pc.InterfaceSpec(v1=100.0, v2=0.5, w=1.0, u=0.5)
        out = pc.interface_lattice_solve(spec)
        assert abs(out.E - 0.5j) < 1e-3

    def test_beta_roots_satisfy_dispersions(self):
        spec = pc.InterfaceSpec(v1=1.5, v2=0.5, w=1.0, u=0.5)
        out = pc.interface_lattice_solve(spec)
        E, bl, br = out.E, out.beta_l, out.beta_r
        lhs_l = spec.v1**2 + spec.w**2 - spec.v1 * spec.w * (bl + 1 / bl)
        lhs_r = spec.v2**2 + spec.w**2 - spec.v2 * spec.w * (br + 1 / br)
        assert abs(lhs_l - E**2) < 1e-12
        assert abs(lhs_r - (E**2 + spec.u**2)) < 1e-12

    def test_off_qcp_warns(self):
        # at the caller's line, also when interface_density solves
        spec = pc.InterfaceSpec(v1=1.5, v2=0.52, w=1.0, u=0.5)
        with pytest.warns(UserWarning, match="off its critical line") as record:
            out = pc.interface_lattice_solve(spec)
            pc.interface_density(spec)
        assert out.residual < 1e-10
        assert [w.filename for w in record] == [__file__] * 2

    def test_profile_decays_on_both_sides(self):
        spec = pc.InterfaceSpec(v1=1.5, v2=0.5, w=1.0, u=0.5,
                                cells_left=30, cells_right=30)
        out = pc.interface_lattice_solve(spec)
        amp = np.abs(out.profile)
        assert np.argmax(amp) in range(2 * 28, 2 * 32)
        assert amp[0] < 1e-4 and amp[-1] < 1e-4


    @pytest.mark.parametrize("v1, v2, w, u", [
        (0.3, 1e-8, 1e-8, 0.3),   # v2 - w / beta_R vanishes
        (1.0, 0.3, 1e-8, 1e-8),   # the right sublattice ratio vanishes
    ])
    def test_degenerate_couplings_raise_no_convergence(self, v1, v2, w, u):
        # valid specs on which the secant meets a zero denominator
        spec = pc.InterfaceSpec(v1=v1, v2=v2, w=w, u=u, cells_left=4, cells_right=4)
        with (np.errstate(divide="ignore", invalid="ignore"), pytest.warns(UserWarning),
              pytest.raises(NoConvergence)):
            pc.interface_lattice_solve(spec)

    @pytest.mark.parametrize("v1, v2, w, u, error", [
        pytest.param(1.0, 0.3, 0.0, 1.0, DegenerateW, id="w0"),
        pytest.param(1e-8, 0.0, 0.0, 1e-8, DegenerateW, id="v2-w0"),
        pytest.param(1.0, 0.0, 0.5, 0.5, NoRootInDisk, id="v2"),
    ])
    def test_vanishing_coupling_raises_at_once(self, monkeypatch, v1, v2, w, u, error):
        # v w = 0 zeroes a dispersion quadratic's leading coefficient; the
        # secant used to run all its iterations on NaN roots, with
        # RuntimeWarnings, before NoConvergence
        def forbidden(*args):
            raise AssertionError("the secant started")

        monkeypatch.setattr(edge, "_matching_residual", forbidden)
        spec = pc.InterfaceSpec(v1=v1, v2=v2, w=w, u=u, cells_left=4, cells_right=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error):
                pc.interface_lattice_solve(spec)


class TestInterfaceDensity:
    SPEC = pc.InterfaceSpec(v1=1.5, v2=0.5, w=1.0, u=0.5)

    def test_solver_failure_falls_back_to_continuum(self, monkeypatch):
        def no_convergence(spec):
            raise NoConvergence("patched")

        expected = pc.interface_density(self.SPEC)[1].E
        monkeypatch.setattr(edge, "interface_lattice_solve", no_convergence)
        assert pc.interface_density(self.SPEC)[1].E == expected

    def test_foreign_solver_error_propagates(self, monkeypatch):
        def broken(spec):
            raise TypeError("patched")

        monkeypatch.setattr(edge, "interface_lattice_solve", broken)
        with pytest.raises(TypeError, match="patched"):
            pc.interface_density(self.SPEC)

    def test_takes_the_real_gauge_matrix(self, monkeypatch):
        # the density comes from the builder's real G: no complex H is built,
        # gauged back or diagonalized, and the bits are the complex route's
        system = pc.biorthogonal_diagonalize(pc.build_interface(self.SPEC))

        def forbidden(*args, **kwargs):
            raise AssertionError("complex Hamiltonian route")

        for module, name in ((pc.lattice, "build_interface"),
                             (pc.spectral, "_sublattice_gauge"),
                             (pc.spectral, "biorthogonal_diagonalize")):
            monkeypatch.setattr(module, name, forbidden)
        for name in ("build_interface", "biorthogonal_diagonalize"):  # edge's own binding
            monkeypatch.setattr(edge, name, forbidden, raising=False)
        density, state = pc.interface_density(self.SPEC)
        idx = int(np.flatnonzero(system.energies == state.E)[0])
        expected = system.left_vectors[:, idx].conj() * system.right_vectors[:, idx]
        np.testing.assert_array_equal(density.site, expected)
        np.testing.assert_array_equal(state.profile, system.right_vectors[:, idx])

    def test_negative_b_sublattice_signature(self):
        spec = pc.InterfaceSpec(v1=1.5, v2=0.5, w=1.0, u=0.5)
        density, state = pc.interface_density(spec)
        i0 = spec.cells_left
        window = slice(i0 - 3, i0 + 4)
        assert np.min(density.site_b[window].real) < -1e-3
        assert abs(state.E.real) < 1e-8 and state.E.imag > 0

    def test_cell_profile_peaks_at_interface(self):
        spec = pc.InterfaceSpec(v1=1.5, v2=0.5, w=1.0, u=0.5)
        density, _ = pc.interface_density(spec)
        peak = int(np.argmax(np.abs(density.cell.real)))
        assert abs(peak - spec.cells_left) <= 1

    def test_near_gap_closing_delocalizes(self):
        tight = pc.interface_density(
            pc.InterfaceSpec(v1=1.5, v2=0.5, w=1.0, u=0.5))[0]
        loose = pc.interface_density(
            pc.InterfaceSpec(v1=1.1, v2=0.5, w=1.0, u=0.5))[0]

        def width(profile):
            p = np.abs(profile.cell.real)
            p = p / p.sum()
            idx = np.arange(len(p))
            mean = (idx * p).sum()
            return np.sqrt(((idx - mean) ** 2 * p).sum())

        assert width(loose) > 1.5 * width(tight)

    @pytest.mark.parametrize("cells", [2, 8])
    def test_too_few_cells_find_no_mode_inside_the_gap(self, cells):
        # on these couplings the dense spectrum holds the interface mode,
        # 0 < Im E < u, only from about 14 cells per side; below that the
        # nearest localized mode sits at -0.47i to -0.50i, outside the gap
        spec = pc.InterfaceSpec(v1=1.1, v2=0.5, w=1.0, u=0.5, cells_left=cells,
                                cells_right=cells)
        with pytest.raises(NoLocalizedMode, match=f"{cells} \\+ {cells} cells"):
            pc.interface_density(spec)

    def test_no_localized_mode_for_flat_chain(self):
        # both sides identical and Hermitian: nothing is pinned
        spec = pc.InterfaceSpec(v1=0.5, v2=0.5, w=1.0, u=0.5)
        with pytest.raises((NoLocalizedMode, ExtraneousRoot, pc.errors.NoConvergence)):
            pc.interface_density(spec)
