"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The suite regenerates
every headline number at desk scale (minutes total); tolerances are pinned
here and nowhere else.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

import ptchain as pc
from ptchain.errors import (
    ExtraneousRoot,
    GaplessWinding,
    ResidualNeedsRegularized,
)
from ptchain.entanglement import DEFAULT_TOLERANCES
from ptchain.fits import FixedCount, UntilRMSE, UntilSSE

from fock_oracle import (
    biorthogonal_ground_pair,
    correlation_from_states,
    entropy_from_rho,
    reduced_density_matrix,
)

A_PBC = np.pi * np.sqrt(2.0) * 2.0 / 6.0   # 1.480961...
A_OBC = np.pi * np.sqrt(2.0) * 2.0 / 24.0  # 0.370240...


def check(name: str, cond: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if cond else 'FAIL'}  {detail}")
    assert cond, f"{name} failed: {detail}"


def pbc_profile(alpha, v, w, u, L, ells, detuning=1e-12,
                prescription=pc.Prescription.BRANCH_CUT):
    spec = pc.ChainSpec(alpha=alpha, v=v, w=w, u=u, cells=L, detuning=detuning)
    return pc.entropy_profile(spec, ells, prescription)


def log_ells(lo, hi, num):
    return sorted({int(round(x)) for x in np.geomspace(lo, hi, num)})


class TestCriterion1FockOracle:
    @pytest.mark.parametrize(
        "v,w,u,boundary",
        [
            (1.0, 0.7, 0.0, "obc"),
            (1.0, 0.7, 0.0, "pbc"),
            (2.0, 1.0, 0.5, "obc"),
            (2.0, 1.0, 0.5, "pbc"),
        ],
    )
    def test_oracle_equivalence(self, v, w, u, boundary):
        spec = pc.ChainSpec(v=v, w=w, u=u, cells=3,
                            boundary=pc.Boundary(boundary))
        h = pc.build_real_space(spec)
        gr, gl = biorthogonal_ground_pair(h)
        c_oracle = correlation_from_states(gr, gl, 6)
        system = pc.biorthogonal_diagonalize(h)
        occ = pc.select_half_filling(system)
        c_pkg = pc.occupied_correlation(system, occ)
        conv = np.max(np.abs(c_pkg - c_oracle))
        worst = 0.0
        for cells_a in (1, 2, 3):
            rho = reduced_density_matrix(gr, gl, 6, 2 * cells_a)
            s_oracle = entropy_from_rho(rho)
            nu = np.linalg.eigvals(c_pkg[: 2 * cells_a, : 2 * cells_a])
            spct = pc.classify_spectrum(nu)
            s_pkg = pc.entropy(spct, pc.Prescription.PRINCIPAL).value
            worst = max(worst, abs(s_pkg - s_oracle))
        check(
            f"1 Fock oracle ({v},{w},{u},{boundary})",
            conv < 1e-10 and worst < 1e-10,
            f"|dC|={conv:.1e} |dS|={worst:.1e}",
        )


class TestCriterion2TrivialQCP:
    def test_central_charge_and_real_entropy(self):
        L = 2000
        ells = log_ells(6, 500, 24)
        prof = pbc_profile(1, 2.0, 1.0, 1.0, L, ells)
        fit = pc.cc_fit_pbc(prof.ells, prof.values.real, L, FixedCount(0))
        slope = fit.coefficients["c_over_3"]
        im_max = float(np.max(np.abs(prof.values.imag)))
        check(
            "2 trivial QCP c/3",
            abs(slope + 2.0 / 3.0) <= 0.015,
            f"slope={slope:.4f}",
        )
        check("2 trivial QCP Im S", im_max <= 1e-8, f"max|Im|={im_max:.1e}")


class TestCriterion3ImaginaryQuantization:
    def test_alpha1_topological(self):
        L = 2000
        ells = log_ells(6, 500, 24)
        prof = pbc_profile(1, 1.0, 2.0, 1.0, L, ells)
        fit = pc.cc_fit_pbc(prof.ells, prof.values.real, L, FixedCount(0))
        slope = fit.coefficients["c_over_3"]
        past = np.flatnonzero(prof.n_edge_pairs == 1)
        im_dev = float(np.max(np.abs(prof.values.imag[past] + np.pi)))
        check(
            "3 topological QCP Im S = -pi",
            len(past) > 0 and im_dev <= 1e-6,
            f"dev={im_dev:.1e} over {len(past)} sizes",
        )
        check(
            "3 topological QCP c/3",
            abs(slope + 2.0 / 3.0) <= 0.015,
            f"slope={slope:.4f}",
        )

    def test_alpha2_higher_winding(self):
        L = 2000
        ells = log_ells(6, 500, 24)
        prof = pbc_profile(2, 1.0, 2.0, 1.0, L, ells)
        fit = pc.cc_fit_pbc(prof.ells, prof.values.real, L, UntilSSE(1e-4))
        slope = fit.coefficients["c_over_3"]
        past = np.flatnonzero(prof.n_edge_pairs == 2)
        im_dev = float(np.max(np.abs(prof.values.imag[past] + 2 * np.pi)))
        check(
            "3 higher winding Im S = -2pi",
            len(past) > 0 and im_dev <= 1e-6,
            f"dev={im_dev:.1e}",
        )
        check(
            "3 higher winding c/3",
            abs(slope + 2.0 / 3.0) <= 0.02,
            f"slope={slope:.4f} trim={fit.trim_count}",
        )


class TestCriterion4CasimirPBC:
    def test_slope(self):
        spec = pc.ChainSpec(v=1.0, w=2.0, u=1.0, cells=64, detuning=1e-12)
        sizes, energies = pc.casimir_energy_table(spec, range(64, 513, 64))
        fit = pc.casimir_fit(sizes, energies, "pbc")
        slope = fit.coefficients["slope"]
        rel = abs(slope - A_PBC) / A_PBC
        check("4 Casimir PBC slope", rel < 0.01,
              f"A={slope:.6f} target={A_PBC:.6f} rel={rel:.2e}")


class TestCriterion5CasimirOBC:
    CASES = {
        "alpha1 trivial": (1, 2.0, 1.0, +2),
        "alpha1 topological": (1, 1.0, 2.0, -1),
        "alpha2 lower": (2, 2.0, 1.0, +1),
        "alpha2 higher": (2, 1.0, 2.0, -2),
    }

    def test_slopes_and_boundary_entropy_offsets(self):
        bs = {}
        for tag, (alpha, v, w, delta_L) in self.CASES.items():
            spec = pc.ChainSpec(alpha=alpha, v=v, w=w, u=1.0, cells=64,
                                boundary=pc.Boundary.OBC, detuning=1e-12)
            sizes, energies = pc.casimir_energy_table(spec, range(64, 513, 64))
            fit = pc.casimir_fit(sizes, energies, "obc", delta_L=delta_L)
            slope = fit.coefficients["slope"]
            rel = abs(slope - A_OBC) / A_OBC
            bs[tag] = fit.coefficients["b"]
            check(f"5 Casimir OBC slope {tag}", rel < 0.01,
                  f"A={slope:.7f} rel={rel:.2e}")
        # per-boundary offset between winding classes, of order ln 2
        for pair in (("alpha1 topological", "alpha1 trivial"),
                     ("alpha2 higher", "alpha2 lower")):
            offset = (bs[pair[0]] - bs[pair[1]]) / 2.0
            check(
                f"5 boundary entropy offset {pair[0].split()[0]}",
                0.7 * np.log(2) <= offset <= 1.3 * np.log(2),
                f"per-edge db={offset:.4f} ln2={np.log(2):.4f}",
            )


class TestCriterion6Topology:
    def test_windings_exact(self):
        ok = True
        for alpha in range(1, 6):
            lo = pc.winding_number(
                pc.ChainSpec(alpha=alpha, v=2.0, w=1.0, u=0.3, cells=alpha + 4))
            hi = pc.winding_number(
                pc.ChainSpec(alpha=alpha, v=1.0, w=2.0, u=0.3, cells=alpha + 4))
            ok = ok and (lo, hi) == (alpha - 1, alpha)
        check("6 winding ladder", ok, "omega = (alpha-1, alpha) for alpha=1..5")

    def test_zak_quantization(self):
        worst = 0.0
        for alpha, v, w in [(1, 2.0, 1.0), (1, 1.0, 2.0), (2, 1.0, 2.0),
                            (3, 2.0, 1.0)]:
            spec = pc.ChainSpec(alpha=alpha, v=v, w=w, u=0.3, cells=alpha + 4)
            res = pc.characterize(spec, 4096)
            worst = max(worst, res.re_zak_deviation)
        check("6 Re Zak = pi*omega", worst < 1e-6, f"worst dev={worst:.1e}")

    def test_gapless_winding_raises(self):
        raised = False
        try:
            pc.winding_number(pc.ChainSpec(v=1.0, w=1.0, u=1.5, cells=4))
        except GaplessWinding:
            raised = True
        check("6 GaplessWinding in broken wedge", raised)


class TestCriterion7LiHaldane:
    @pytest.mark.parametrize(
        "alpha,v,w,omega",
        [(1, 2.0, 1.0, 0), (1, 1.0, 2.0, 1), (2, 2.0, 1.0, 1), (2, 1.0, 2.0, 2)],
    )
    def test_edge_pair_count_and_energies(self, alpha, v, w, omega):
        L = 400
        spec = pc.ChainSpec(alpha=alpha, v=v, w=w, u=1.0, cells=L,
                            detuning=1e-12)
        corr = pc.correlation_k_space(spec, L // 4)
        spct = pc.classify_spectrum(np.linalg.eigvals(corr.matrix))
        count_ok = spct.n_edge_pairs == omega
        eps = pc.entanglement_energies(spct).values
        worst_re, worst_form = 0.0, 0.0
        for g in spct.groups:
            if g.label is pc.ModeLabel.EDGE_PAIR:
                for idx in g.indices:
                    I = abs(spct.eigenvalues[idx].imag)
                    worst_re = max(worst_re, abs(eps[idx].real))
                    worst_form = max(
                        worst_form,
                        abs(abs(eps[idx].imag) - 2 * np.arctan(2 * I)),
                    )
        check(
            f"7 Li-Haldane (alpha={alpha}, omega={omega})",
            count_ok and worst_re < 1e-6 and worst_form < 1e-9,
            f"pairs={spct.n_edge_pairs} |Re eps|={worst_re:.1e} "
            f"|form dev|={worst_form:.1e}",
        )


class TestCriterion8PrescriptionComparison:
    @staticmethod
    def spike_stats(L):
        spec = pc.ChainSpec(v=2.0, w=1.0, u=1.0, cells=L, detuning=1e-7)
        ells = np.arange(2, 61)
        branch = pc.entropy_profile(spec, ells, pc.Prescription.BRANCH_CUT)
        absv = pc.entropy_profile(spec, ells, pc.Prescription.ABSOLUTE_VALUE)
        onset_hits = np.flatnonzero(branch.n_quartets > 0)
        onset = int(branch.ells[onset_hits[0]])

        def d2(y):
            return y[2:] - 2 * y[1:-1] + y[:-2]

        mid = ells[1:-1]
        window = (mid >= onset - 10) & (mid <= onset + 10)
        at_onset = np.abs(mid - onset) <= 1
        da = np.abs(d2(absv.values.real))
        db = np.abs(d2(branch.values.real))
        ratio_abs = da[at_onset].max() / np.median(da[window])
        ratio_branch = db[at_onset].max() / np.median(db[window])
        return onset, float(ratio_abs), float(ratio_branch)

    def test_full_scale_margins(self):
        # the momentum-space path makes the reference scale cheap here
        onset, ratio_abs, ratio_branch = self.spike_stats(10000)
        check("8 quartet onset at reference scale", onset == 11,
              f"onset={onset}")
        check("8 absolute-value kink >= 10x", ratio_abs >= 10.0,
              f"ratio={ratio_abs:.1f}")
        check("8 branch-cut smooth <= 3x", ratio_branch <= 3.0,
              f"ratio={ratio_branch:.2f}")

    def test_desk_scale_detection(self):
        # at L=2000 the onset moves into a region of larger background
        # curvature; the kink remains prominent but below the 10x margin
        onset, ratio_abs, ratio_branch = self.spike_stats(2000)
        check("8 desk-scale onset detected", onset == 31, f"onset={onset}")
        check("8 desk-scale kink >= 5x", ratio_abs >= 5.0,
              f"ratio={ratio_abs:.1f}")
        check("8 desk-scale branch smooth <= 3x", ratio_branch <= 3.0,
              f"ratio={ratio_branch:.2f}")


class TestCriterion9Disorder:
    def test_ensemble(self):
        template = pc.ChainSpec(v=1.0, w=2.0, u=1.0, cells=200,
                                detuning=1e-10)
        ells = log_ells(6, 60, 10)
        stats = pc.disorder_ensemble(
            template, 0.999, 100, 20260101, ells,
            prescription=pc.Prescription.REGULARIZED,
            tolerances=DEFAULT_TOLERANCES,
        )
        im_dev = float(np.max(np.abs(stats.im_values + np.pi)))
        check("9 disorder Im S = -pi every realization", im_dev <= 1e-6,
              f"max dev={im_dev:.1e} over {stats.n_realizations} realizations")
        fit = pc.cc_fit_pbc(stats.ells, stats.mean_re, 200, FixedCount(0))
        slope = fit.coefficients["c_over_3"]
        rel = abs(slope + 2.0 / 3.0) / (2.0 / 3.0)
        check("9 disorder mean Re S slope", rel <= 0.05,
              f"slope={slope:.4f} rel={rel:.1%}")


class TestCriterion10OBCCalabreseCardy:
    # expected c/6 per coupling set, frozen from the regenerated fits
    CASES = [
        (1, 2.0, 1.0, -0.3344),
        (1, 10.0, 9.0, -0.3368),
        (1, 1.0, 2.0, -0.3321),
        (1, 9.0, 10.0, -0.3377),
        (2, 2.0, 1.0, -0.3348),
        (2, 1.0, 2.0, -0.3303),
    ]

    @pytest.mark.parametrize("alpha,v,w,c6_ref", CASES)
    def test_fit(self, alpha, v, w, c6_ref):
        # fit window: quarter chain, clear of both the UV points (handled
        # by the trim rule) and the half-chain regime where the
        # single-boundary regularized entropy departs from the shifted form
        L = 200
        spec = pc.ChainSpec(alpha=alpha, v=v, w=w, u=1.0, cells=L,
                            boundary=pc.Boundary.OBC, detuning=0.0)
        prof = pc.entropy_profile(spec, range(1, L // 4 + 1),
                                  pc.Prescription.REGULARIZED)
        fit = pc.cc_fit_obc(prof.ells, prof.values.real, L, UntilRMSE(1e-4))
        c6 = fit.coefficients["c_over_6"]
        check(
            f"10 OBC c/6 ({alpha},{v},{w})",
            abs(c6 - c6_ref) <= 0.01,
            f"c/6={c6:.4f} ref={c6_ref} trim={fit.trim_count} "
            f"dl={fit.coefficients['delta_ell']:.3f} rmse={fit.rmse:.1e}",
        )


class TestCriterion11Interface:
    def test_continuum_closed_form(self):
        out = pc.interface_continuum(-0.5, 0.5)
        dev = abs(out.E - 1j * 0.5 / np.sqrt(3.0))
        check("11 continuum E = iu/sqrt(3)", dev < 1e-12, f"dev={dev:.1e}")

    def test_lattice_matches_dense(self):
        spec = pc.InterfaceSpec(v1=1.5, v2=0.5, w=1.0, u=0.5,
                                cells_left=40, cells_right=40)
        solved = pc.interface_lattice_solve(spec)
        energies = np.linalg.eigvals(pc.build_interface(spec))
        dev = float(np.min(np.abs(energies - solved.E)))
        check("11 lattice vs dense", dev < 1e-8,
              f"E={solved.E:.8f} dev={dev:.1e}")

    def test_extraneous_root(self):
        raised = False
        try:
            pc.interface_continuum(+1.5, 0.5)
        except ExtraneousRoot:
            raised = True
        check("11 extraneous root refused", raised)

    def test_density_signature(self):
        spec = pc.InterfaceSpec(v1=1.5, v2=0.5, w=1.0, u=0.5)
        density, state = pc.interface_density(spec)
        i0 = spec.cells_left
        neg_b = float(np.min(density.site_b[i0 - 3:i0 + 4].real))
        peak = int(np.argmax(np.abs(density.cell.real)))
        check(
            "11 negative B-sublattice density",
            neg_b < 0 and abs(peak - i0) <= 1 and state.E.imag > 0,
            f"min Re n_B={neg_b:.4f} peak cell={peak}",
        )


class TestCriterion12SymmetryClosure:
    def test_clean_pbc_passes_both(self):
        spec = pc.ChainSpec(v=1.0, w=2.0, u=1.0, cells=128, detuning=1e-12)
        report = pc.symmetry_closure(pc.correlation_k_space(spec, 16).matrix)
        check(
            "12 clean PBC closures",
            report.t_plus_ok and report.ph_ok,
            f"T+={report.t_plus_residual:.1e} PH={report.ph_residual:.1e}",
        )

    def test_obc_keeps_only_ph_and_redirects(self):
        spec = pc.ChainSpec(v=1.0, w=2.0, u=1.0, cells=64,
                            boundary=pc.Boundary.OBC, detuning=0.0)
        system = pc.biorthogonal_diagonalize(pc.build_real_space(spec))
        occ = pc.select_half_filling(system)
        corr = pc.correlation_matrix(system, occ, 16)
        report = pc.symmetry_closure(corr.matrix)
        check(
            "12 OBC residual pairing only",
            (not report.t_plus_ok) and report.ph_ok,
            f"T+={report.t_plus_residual:.1e} PH={report.ph_residual:.1e}",
        )
        spct = pc.classify_spectrum(np.linalg.eigvals(corr.matrix))
        redirected = False
        try:
            pc.entropy(spct, pc.Prescription.BRANCH_CUT)
        except ResidualNeedsRegularized:
            redirected = True
        reg = pc.entropy(spct, pc.Prescription.REGULARIZED)
        check(
            "12 branch-cut redirects, regularized succeeds",
            redirected and np.isfinite(reg.value.real),
            f"S_reg={reg.value:.4f}",
        )
