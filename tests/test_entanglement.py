import cmath
import dataclasses
import math
import struct
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import ptchain as pc
import ptchain.entanglement as entanglement
import ptchain.spectral as spectral
from ptchain.entanglement import (_correlation_block, _halved_eigvals, _leading_block,
                                  _subsystem_correlation, _subsystem_eigvals)
from ptchain.errors import (
    AmbiguousFilling,
    DefectiveMatrix,
    DegenerateEigenvalue,
    DisorderPresent,
    ResidualNeedsRegularized,
    UnpairedMode,
)
from reference_builders import toeplitz_correlation as reference_toeplitz
from reference_classify import classify_spectrum as reference_classify

BC = pc.Prescription.BRANCH_CUT
ABS = pc.Prescription.ABSOLUTE_VALUE
PRIN = pc.Prescription.PRINCIPAL
REG = pc.Prescription.REGULARIZED


def chain(alpha=1, v=1.0, w=1.0, u=0.0, cells=None, boundary="pbc", **kw):
    return pc.ChainSpec(
        alpha=alpha, v=v, w=w, u=u,
        cells=cells if cells is not None else alpha + 3,
        boundary=pc.Boundary(boundary), **kw,
    )


def diag_system(spec):
    sys_ = pc.biorthogonal_diagonalize(pc.build_real_space(spec))
    return sys_, pc.select_half_filling(sys_)


class TestCorrelationMatrix:
    def test_hermitian_dimer(self):
        sys_, occ = diag_system(chain(v=1, w=1e-9, u=0, cells=2, boundary="obc"))
        corr = pc.correlation_matrix(sys_, occ, 1)
        assert_allclose(corr.matrix, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-8)

    def test_whole_system_eigenvalues_are_weights(self):
        sys_, occ = diag_system(chain(v=2, w=1, u=0.5, cells=6))
        corr = pc.correlation_matrix(sys_, occ, 6)
        nu = np.sort(np.linalg.eigvals(corr.matrix).real)
        assert_allclose(nu, np.sort(occ.weights), atol=1e-9)

    def test_trace_is_subsystem_cells(self):
        corr = pc.correlation_k_space(chain(v=2, w=1, u=1, cells=128), 16)
        assert abs(np.trace(corr.matrix) - 16) < 1e-6


class TestCorrelationKSpace:
    def test_matches_real_space_path_gapped(self):
        spec = chain(v=2, w=1, u=0.5, cells=64)
        fast = pc.correlation_k_space(spec, 8)
        sys_, occ = diag_system(spec)
        dense = pc.correlation_matrix(sys_, occ, 8)
        assert np.max(np.abs(fast.matrix - dense.matrix)) < 1e-12
        assert fast.provenance is pc.Provenance.K_SPACE

    def test_matches_real_space_path_near_critical(self):
        # at detuning 1e-4 the dense path is still well enough conditioned
        # to meet the 1e-10 dual-path bound; closer to the exceptional
        # point only the momentum-space path keeps full accuracy
        spec = chain(v=2, w=1, u=1, cells=64, detuning=1e-4)
        fast = pc.correlation_k_space(spec, 8)
        sys_, occ = diag_system(spec)
        dense = pc.correlation_matrix(sys_, occ, 8)
        assert np.max(np.abs(fast.matrix - dense.matrix)) < 1e-10

    def test_critical_eigenvalues_agree_relatively(self):
        # the reference-scale detuning 1e-12: dense-path forward error is
        # set by the near-exceptional conditioning, so compare spectra
        spec = chain(v=2, w=1, u=1, cells=64)
        fast = pc.correlation_k_space(spec, 8).matrix
        sys_, occ = diag_system(spec)
        dense = pc.correlation_matrix(sys_, occ, 8).matrix
        nf = np.linalg.eigvals(fast)
        nd = np.linalg.eigvals(dense)
        scale = np.abs(nf).max()
        d = np.max(np.min(np.abs(nf[None, :] - nd[:, None]), axis=1))
        assert d / scale < 1e-3

    def test_hermitian_case_is_hermitian(self):
        corr = pc.correlation_k_space(chain(v=2, w=1, u=0, cells=32), 8).matrix
        assert np.max(np.abs(corr - corr.conj().T)) < 1e-12

    def test_full_system_is_band_projector(self):
        spec = chain(v=2, w=1, u=0.5, cells=12)
        nu = np.linalg.eigvals(pc.correlation_k_space(spec, 12).matrix)
        assert_allclose(np.sort(nu.real), [0.0] * 12 + [1.0] * 12, atol=1e-9)
        assert np.max(np.abs(nu.imag)) < 1e-9

    @pytest.mark.parametrize("ell", [4.5, 0, 17])
    def test_subsystem_size_checked_by_both_builders(self, ell):
        # one check: a ValueError naming the size, not a foreign TypeError
        spec = chain(v=2, w=1, u=1, cells=16)
        sys_, occ = diag_system(spec)
        for build in (lambda: pc.correlation_k_space(spec, ell),
                      lambda: pc.correlation_matrix(sys_, occ, ell)):
            with pytest.raises(ValueError, match=str(ell)):
                build()

    def test_integral_float_subsystem_size_accepted(self):
        spec = chain(v=2, w=1, u=1, cells=16)
        sys_, occ = diag_system(spec)
        for size in (4.0, np.int64(4)):
            fast = pc.correlation_k_space(spec, size)
            dense = pc.correlation_matrix(sys_, occ, size)
            assert fast.subsystem_cells == dense.subsystem_cells == 4
            assert type(fast.subsystem_cells) is type(dense.subsystem_cells) is int
            np.testing.assert_array_equal(fast.matrix, pc.correlation_k_space(spec, 4).matrix)

    @pytest.mark.parametrize("ells", [[True, 3, 4.0], ["3", 4], [np.bool_(False), 2]])
    def test_subsystem_sizes_refuse_bools_and_strings(self, ells):
        # True is not the size 1, nor '3' the size 3
        spec = chain(v=2, w=1, u=1, cells=16)
        with pytest.raises(ValueError, match="must be integers"):
            pc.entropy_profile(spec, ells)
        with pytest.raises(ValueError, match="must be integers"):
            pc.correlation_k_space(spec, ells[0])

    def test_rejects_obc_and_disorder(self):
        with pytest.raises(ValueError):
            pc.correlation_k_space(chain(v=1, w=2, u=0.5, boundary="obc"), 2)
        spec = chain(v=1, w=2, u=1, cells=4, detuning=1e-10,
                     disorder=pc.DisorderProfile([0.1, -0.1, 0.2, 0.0]))
        with pytest.raises(DisorderPresent):
            pc.correlation_k_space(spec, 2)


class TestClassifySpectrum:
    def test_reals_in_range(self):
        sp = pc.classify_spectrum(np.array([0.3, 0.7]))
        assert all(l is pc.ModeLabel.REAL_IN_RANGE for l in sp.labels)

    def test_edge_pair(self):
        sp = pc.classify_spectrum(np.array([0.5 + 5j, 0.5 - 5j]))
        assert sp.n_edge_pairs == 1
        assert sp.edge_pair_imags == (5.0,)

    def test_quartet(self):
        nus = np.array([0.6 + 0.3j, 0.6 - 0.3j, 0.4 + 0.3j, 0.4 - 0.3j])
        sp = pc.classify_spectrum(nus)
        assert sp.n_quartets == 1
        assert all(l is pc.ModeLabel.QUARTET for l in sp.labels)

    def test_real_pair_outside_range(self):
        sp = pc.classify_spectrum(np.array([1.25, -0.25, 0.5]))
        labels = set(sp.labels)
        assert pc.ModeLabel.REAL_PAIR in labels
        assert pc.ModeLabel.REAL_IN_RANGE in labels

    def test_residual_ph_pair(self):
        # {nu, 1-nu*} without conjugates
        nus = np.array([0.3 + 0.2j, 0.7 + 0.2j])
        sp = pc.classify_spectrum(nus)
        assert sp.n_residual == 1

    def test_self_paired_edge_without_conjugate(self):
        sp = pc.classify_spectrum(np.array([0.5 + 0.8j, 0.5 + 0.3j, 0.25, 0.75]))
        assert sp.n_residual == 2
        assert sp.n_edge_pairs == 0

    def test_unpaired_leftover(self):
        sp = pc.classify_spectrum(np.array([0.3 + 0.2j, 0.9 - 0.4j]))
        assert sp.n_unpaired >= 1

    def test_degenerate_double_edge_pair(self):
        nus = np.array([0.5 + 2j, 0.5 - 2j, 0.5 + 2j, 0.5 - 2j])
        sp = pc.classify_spectrum(nus)
        assert sp.n_edge_pairs == 2

    def test_labels_partition(self):
        rng = np.random.default_rng(0)
        nus = rng.normal(size=12) + 1j * rng.normal(size=12)
        sp = pc.classify_spectrum(nus)
        assert len(sp.labels) == 12
        covered = sorted(i for g in sp.groups for i in g.indices)
        assert covered == list(range(12))


#: displacements on both sides of the default tol_pair = 1e-8
NOISE = (0.0, 1e-12, 3e-9, 1e-8, 2e-8, 1e-6)


def multiplet(kind, re, im):
    nu = complex(re, im)
    return {
        "real": [complex(re)],  # in range, or a lone real outside [0, 1]
        "real_pair": [complex(re), complex(1.0 - re)],
        "edge": [complex(0.5, im), complex(0.5, -im)],
        "quartet": [nu, nu.conjugate(), 1.0 - nu, 1.0 - nu.conjugate()],
        "residual": [nu, 1.0 - nu.conjugate()],
        "lone": [nu],
        "nan": [complex(math.nan, im), complex(re, math.nan)],
    }[kind]


@st.composite
def adversarial_spectra(draw):
    """Shuffled multiplets, some repeated (alpha-fold degeneracy), each mode
    displaced by noise that puts matches on both sides of tol_pair."""
    # a few shared coordinates make multiplets collide and matches ambiguous
    re = st.sampled_from((0.2, 0.5, 0.5 + 3e-7, 0.8, 1.4)) | st.floats(-0.5, 1.5)
    im = st.sampled_from((1e-9, 0.3, 2.0)) | st.floats(1e-3, 3.0)
    kinds = st.sampled_from(
        ("real", "real_pair", "edge", "quartet", "residual", "lone", "nan"))
    modes = []
    for _ in range(draw(st.integers(1, 8))):
        members = multiplet(draw(kinds), draw(re), draw(im))
        for _ in range(draw(st.integers(1, 3))):
            for nu in members:
                eps = draw(st.sampled_from(NOISE))
                angle = draw(st.sampled_from((0.0, math.pi / 2, math.pi / 4, 1.0)))
                modes.append(nu + eps * cmath.exp(1j * angle))
    return np.array(draw(st.permutations(modes)), dtype=complex)


class TestClassifyMatchesReference:
    """The bisect-window matcher against the numpy scan it replaced."""

    @given(adversarial_spectra(), st.sampled_from((
        pc.ToleranceSet(),
        # tol_pair above tol_edge: a quartet lookup must skip the modes the
        # visit already holds
        pc.ToleranceSet(tol_real=1e-8, tol_edge=1e-9, tol_pair=1e-6),
    )))
    @settings(max_examples=1500)
    def test_identical_classification(self, nus, tolerances):
        got = pc.classify_spectrum(nus, tolerances)
        want = reference_classify(nus, tolerances)
        assert got.labels == want.labels
        assert got.groups == want.groups
        assert got.edge_pair_imags == want.edge_pair_imags
        assert got.quartet_params == want.quartet_params


class TestEntropyClosedForms:
    def test_half_half_prescription_independent(self):
        sp = pc.classify_spectrum(np.array([0.5, 0.5]))
        for presc in (BC, ABS, PRIN, REG):
            val = pc.entropy(sp, presc).value
            assert_allclose(val, 2 * np.log(2), atol=1e-14)

    def test_edge_pair_branch_value(self):
        # I = 1: -2 ln sqrt(1.25) + (4 arctan 2 - 2 pi) - i pi
        sp = pc.classify_spectrum(np.array([0.5 + 1j, 0.5 - 1j]))
        val = pc.entropy(sp, BC).value
        expected_re = -np.log(1.25) + (4 * np.arctan(2.0) - 2 * np.pi)
        assert_allclose(val.real, expected_re, atol=1e-12)
        assert_allclose(val.real, -2.0777339, atol=1e-6)
        assert_allclose(val.imag, -np.pi, atol=1e-15)

    def test_edge_pair_absolute_value(self):
        sp = pc.classify_spectrum(np.array([0.5 + 1j, 0.5 - 1j]))
        val = pc.entropy(sp, ABS).value
        assert_allclose(val, -np.log(1.25), atol=1e-12)
        assert_allclose(val.real, -0.2231436, atol=1e-6)

    def test_edge_pair_abs_branch_difference(self):
        # difference is exactly (4 phi - 2 pi) I per edge pair
        for I in (0.3, 1.0, 7.5, 2000.0):
            sp = pc.classify_spectrum(np.array([0.5 + 1j * I, 0.5 - 1j * I]))
            branch = pc.entropy(sp, BC).value
            absval = pc.entropy(sp, ABS).value
            expected = (4 * np.arctan(2 * I) - 2 * np.pi) * I
            assert_allclose(branch.real - absval.real, expected, rtol=1e-9)

    def test_quartet_branch_real_and_value(self):
        nu = 0.62 + 0.4j
        nus = np.array([nu, np.conj(nu), 1 - nu, 1 - np.conj(nu)])
        sp = pc.classify_spectrum(nus)
        val = pc.entropy(sp, BC).value
        assert val.imag == 0.0
        R, I = nu.real, nu.imag
        r, rho = abs(nu), abs(1 - nu)
        phi, vphi = np.angle(nu), np.angle(1 - np.conj(nu))
        expected = -4 * R * np.log(r) - 4 * (1 - R) * np.log(rho) \
            + 4 * I * (phi + vphi - np.pi)
        assert_allclose(val.real, expected, atol=1e-12)
        # quartet difference from the absolute-value prescription
        absval = pc.entropy(sp, ABS).value
        assert_allclose(val.real - absval.real, 4 * I * (phi + vphi - np.pi),
                        atol=1e-12)

    def test_real_pair_is_real(self):
        sp = pc.classify_spectrum(np.array([1.3, -0.3]))
        val = pc.entropy(sp, BC).value
        expected = -2 * (1.3 * np.log(1.3) + (-0.3) * np.log(0.3))
        assert val.imag == 0.0
        assert_allclose(val.real, expected, atol=1e-12)

    def test_branch_refuses_unpaired(self):
        sp = pc.classify_spectrum(np.array([0.3 + 0.2j, 0.9 - 0.4j]))
        with pytest.raises(UnpairedMode):
            pc.entropy(sp, BC)

    def test_branch_directs_residual_to_regularized(self):
        sp = pc.classify_spectrum(np.array([0.3 + 0.2j, 0.7 + 0.2j]))
        with pytest.raises(ResidualNeedsRegularized):
            pc.entropy(sp, BC)
        out = pc.entropy(sp, REG)
        assert np.isfinite(out.value.real)

    def test_regularized_completes_residual_pair_to_quartet(self):
        nu = 0.3 + 0.2j
        residual = pc.classify_spectrum(np.array([nu, 1 - np.conj(nu)]))
        full = pc.classify_spectrum(
            np.array([nu, np.conj(nu), 1 - nu, 1 - np.conj(nu)])
        )
        half = pc.entropy(residual, REG).value
        whole = pc.entropy(full, BC).value
        assert_allclose(half, whole / 2, atol=1e-12)

    def test_ledger_sums_exactly(self):
        corr = pc.correlation_k_space(chain(v=1, w=2, u=1, cells=128), 20)
        sp = pc.classify_spectrum(np.linalg.eigvals(corr.matrix))
        assert sp.n_edge_pairs == 1
        shifts = {pc.ModeLabel.REAL_PAIR: 1, pc.ModeLabel.EDGE_PAIR: 1,
                  pc.ModeLabel.QUARTET: 2}
        for presc in (BC, ABS, PRIN, REG):
            out = pc.entropy(sp, presc)
            assert out.value == sum((e.contribution for e in out.ledger), 0j)
            # one entry per group, in group order
            assert [(e.label, e.indices) for e in out.ledger] == \
                [(g.label, g.indices) for g in sp.groups]
            branch = presc in (BC, REG)
            assert [e.branch_shifts for e in out.ledger] == \
                [shifts.get(g.label, 0) if branch else 0 for g in sp.groups]

    def test_regularized_ledger_one_entry_per_group(self):
        nu = 0.3 + 0.2j
        sp = pc.classify_spectrum(np.array([nu, 1 - np.conj(nu), 0.5 + 0.4j, 0.2]))
        out = pc.entropy(sp, REG)
        assert [e.indices for e in out.ledger] == [g.indices for g in sp.groups]
        assert [e.branch_shifts for e in out.ledger] == [0, 0, 0]
        assert out.value == sum((e.contribution for e in out.ledger), 0j)

    @given(adversarial_spectra())
    @settings(max_examples=1000, derandomize=True, deadline=None)
    def test_branch_cut_is_regularized_where_accepted(self, nus):
        sp = pc.classify_spectrum(nus)
        try:
            branch = pc.entropy(sp, BC).value
        except (UnpairedMode, ResidualNeedsRegularized):
            return
        regularized = pc.entropy(sp, REG).value
        assert branch.imag == regularized.imag
        assert abs(branch.real - regularized.real) <= 1e-12

    def test_edge_pair_just_inside_tol_edge(self):
        # the partner sits 5e-9 beyond tol_edge, but the pair is an edge pair
        nus = np.array([complex(0.5 - 0.999997e-6, 0.3 + 1e-9),
                        complex(0.5 - 1.004997e-6, -0.3)])
        sp = pc.classify_spectrum(nus)
        assert sp.n_edge_pairs == 1
        for presc in (BC, REG):
            assert pc.entropy(sp, presc).value.imag == -np.pi

    def test_residual_pair_just_outside_tol_edge(self):
        # the partner of nu sits inside tol_edge, nu itself outside it; the
        # pair completes a quartet, which carries no imaginary part
        nu = complex(0.5 - 1.000004e-6, 0.3)
        nus = np.array([nu, (1 - nu.conjugate()) - 5e-9])
        sp = pc.classify_spectrum(nus)
        assert sp.n_residual == 1
        half = pc.entropy(sp, REG).value
        completed = pc.classify_spectrum(np.concatenate([nus, nus.conj()]))
        assert completed.n_quartets == 1
        whole = pc.entropy(completed, BC).value
        assert half.imag == 0.0
        assert_allclose(half.real, whole.real / 2, rtol=0, atol=1e-14)

    def test_branch_cut_continuous_at_tol_real(self):
        # x inside -tol_real counts as in range, beyond it as a real pair
        inside, outside = (
            pc.entropy(pc.classify_spectrum(np.array([x, 1 - x])), BC).value
            for x in (-0.99e-8, -1.01e-8)
        )
        assert abs(inside - outside) < 1e-8

    @given(st.floats(0.05, 0.95))
    @settings(max_examples=30)
    def test_real_spectra_prescriptions_agree(self, x):
        sp = pc.classify_spectrum(np.array([x, 1 - x]))
        vals = [pc.entropy(sp, p).value for p in (BC, ABS, PRIN, REG)]
        for v in vals[1:]:
            assert_allclose(v, vals[0], atol=1e-12)


def bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


class TestRecords:
    """ModeGroup and LedgerEntry, the per-group records, and the ledger
    invariant that the real-in-range fast path of entropy keeps."""

    def test_fields_keep_their_names_and_order(self):
        assert entanglement.ModeGroup._fields == ("label", "indices")
        assert entanglement.LedgerEntry._fields == (
            "label", "contribution", "branch_shifts", "indices")

    def test_records_are_immutable(self):
        label = pc.ModeLabel.EDGE_PAIR
        for record in (entanglement.ModeGroup(label, (0, 1)),
                       entanglement.LedgerEntry(label, 1 - 2j, 1, (0, 1))):
            for name in record._fields:
                with pytest.raises(AttributeError):
                    setattr(record, name, None)
            with pytest.raises(AttributeError):
                record.extra = 0

    @given(adversarial_spectra(), st.sampled_from((REG, BC)))
    @settings(max_examples=600, derandomize=True, deadline=None)
    def test_value_is_the_ledger_sum_in_ledger_order(self, nus, prescription):
        sp = pc.classify_spectrum(nus)
        try:
            out = pc.entropy(sp, prescription)
        except (UnpairedMode, ResidualNeedsRegularized):
            assert prescription is BC
            return
        total = 0j
        for entry in out.ledger:
            total += entry.contribution
        assert bits(out.value) == bits(total)
        assert [(e.label, e.indices) for e in out.ledger] == list(sp.groups)
        # a real-in-range entry, taken inline, is the general path's sum
        for entry in out.ledger:
            if entry.label is pc.ModeLabel.REAL_IN_RANGE:
                [i] = entry.indices
                general = 0j + entanglement._real_share(complex(nus[i]))
                assert (bits(entry.contribution), entry.branch_shifts) == (bits(general), 0)


@pytest.mark.parametrize("boundary", [
    "pbc",
    pytest.param("obc", marks=pytest.mark.xfail(
        strict=True, reason="singular_mode blocks are products formed at the "
        "largest size, whose rounding follows the product's shape")),
], ids=["k_space", "singular_mode"])
def test_size_value_independent_of_the_other_sizes(boundary):
    # a size requested alone against the same size among sizes 1-25
    spec = chain(v=1, w=2, u=1, cells=100, boundary=boundary)
    profile = pc.entropy_profile(spec, range(1, 26), REG)
    assert profile.route == {"pbc": "k_space", "obc": "singular_mode"}[boundary]
    differ = [ell for ell, value in zip(profile.ells, profile.values)
              if bits(pc.entropy_profile(spec, [ell], REG).values[0]) != bits(value)]
    assert differ == []


class TestEntanglementEnergies:
    def test_half_gives_zero(self):
        sp = pc.classify_spectrum(np.array([0.5]))
        assert_allclose(pc.entanglement_energies(sp).values, [0.0], atol=0)

    def test_edge_value(self):
        sp = pc.classify_spectrum(np.array([0.5 + 0.5j, 0.5 - 0.5j]))
        eps = pc.entanglement_energies(sp).values
        assert_allclose(sorted(eps, key=lambda z: z.imag),
                        [-1j * np.pi / 2, 1j * np.pi / 2], atol=1e-14)

    def test_real_in_range_gives_real(self):
        sp = pc.classify_spectrum(np.array([0.2, 0.8]))
        eps = pc.entanglement_energies(sp).values
        assert np.max(np.abs(eps.imag)) == 0.0

    def test_degenerate_raises(self):
        sp = pc.classify_spectrum(np.array([0.0, 1.0]))
        with pytest.raises(DegenerateEigenvalue):
            pc.entanglement_energies(sp)

    def test_edge_pairs_match_arctan_form(self):
        corr = pc.correlation_k_space(chain(v=1, w=2, u=1, cells=400), 100)
        sp = pc.classify_spectrum(np.linalg.eigvals(corr.matrix))
        assert sp.n_edge_pairs == 1
        eps = pc.entanglement_energies(sp).values
        for g in sp.groups:
            if g.label is pc.ModeLabel.EDGE_PAIR:
                for idx in g.indices:
                    I = abs(sp.eigenvalues[idx].imag)
                    assert abs(eps[idx].real) < 1e-6
                    assert abs(abs(eps[idx].imag) - 2 * np.arctan(2 * I)) < 1e-9


class TestEntropyProfile:
    def test_pbc_topological_imaginary_plateau(self):
        prof = pc.entropy_profile(chain(v=1, w=2, u=1, cells=256),
                                  [2, 4, 8, 16, 32, 64])
        vals = prof.values
        assert np.all(np.abs(vals.imag + np.pi) < 1e-9)
        assert np.all(prof.n_edge_pairs == 1)

    def test_pbc_trivial_entropy_real(self):
        prof = pc.entropy_profile(chain(v=2, w=1, u=1, cells=256),
                                  [2, 4, 8, 16, 32, 64])
        assert np.max(np.abs(prof.values.imag)) < 1e-9
        assert np.all(prof.n_edge_pairs == 0)

    def test_alpha2_double_plateau(self):
        prof = pc.entropy_profile(chain(alpha=2, v=1, w=2, u=1, cells=256),
                                  [4, 8, 16, 32])
        assert np.all(np.abs(prof.values.imag + 2 * np.pi) < 1e-9)
        assert np.all(prof.n_edge_pairs == 2)

    def test_spectrum_closure_clean_pbc(self):
        # {nu} = {1 - nu*} = {nu*} as multisets
        corr = pc.correlation_k_space(chain(v=1, w=2, u=1, cells=128), 16)
        nu = np.linalg.eigvals(corr.matrix)
        for target in (1 - np.conj(nu), np.conj(nu)):
            d = np.max(np.min(np.abs(nu[None, :] - target[:, None]), axis=1))
            assert d < 1e-7

    def test_rejects_empty_and_out_of_range_sizes(self):
        spec = chain(v=2, w=1, u=1, cells=16)
        for ells in ([], [0, 4], [17]):
            with pytest.raises(ValueError, match="non-empty list in 1..16"):
                pc.entropy_profile(spec, ells)

    def test_sizes_must_be_integral(self):
        spec = chain(v=2, w=1, u=1, cells=16)
        with pytest.raises(ValueError, match=r"must be integers, got \[2\.7, 4\]"):
            pc.entropy_profile(spec, [2.7, 4])
        floats = pc.entropy_profile(spec, np.array([4.0, 2.0]))
        np.testing.assert_array_equal(floats.ells, [2, 4])
        np.testing.assert_array_equal(floats.values, pc.entropy_profile(spec, [2, 4]).values)

    def test_obc_needs_regularized(self):
        spec = chain(v=2, w=1, u=1, cells=64, boundary="obc")
        with pytest.raises((ResidualNeedsRegularized, UnpairedMode)):
            pc.entropy_profile(spec, [8, 16], BC)
        prof = pc.entropy_profile(spec, [8, 16], REG)
        assert np.all(np.isfinite(prof.values.real))


def _counts_and_entropy(lam):
    """Mode counts and REGULARIZED entropy of a block's eigenvalues lambda."""
    spect = pc.classify_spectrum(0.5 + 0.5j * lam)
    counts = (spect.n_edge_pairs, spect.n_quartets, spect.n_residual, spect.n_unpaired)
    return counts, pc.entropy(spect, REG).value


class TestReflectionHalving:
    """The k-space block anticommutes with Gamma: A(i) <-> B(ell-1-i), which
    on the interleaved index A(0), B(0), A(1), ... is its reversal; the
    subsystem eigensolve halves to +-sqrt(eig(P Q)) on it, with a fallback
    to the 2 ell solve near mu = 0."""

    @given(
        alpha=st.integers(1, 3),
        v=st.floats(0.25, 2.5),
        w=st.floats(0.25, 2.5),
        u=st.floats(0.0, 2.0),
        detuning=st.sampled_from((None, 1e-12, 1e-6, 1e-2)),
        cells=st.integers(8, 160),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_block_anticommutes_with_reflection(self, alpha, v, w, u, detuning,
                                                cells, data):
        assume(detuning is None or detuning <= u)
        spec = chain(alpha=alpha, v=v, w=w, u=u, cells=cells, detuning=detuning)
        ell = data.draw(st.integers(1, cells))
        try:
            M, route = _correlation_block(spec, ell)
        except (DefectiveMatrix, AmbiguousFilling):
            assume(False)
        assert route == "k_space"
        even = (M + M[::-1, ::-1]) / 2
        assert np.max(np.abs(even)) <= 1e-12 * max(np.max(np.abs(M)), 1.0)

    def test_guard_keeps_worst_sweep_block(self, monkeypatch):
        # nearly every mode is half filled, so most mu sit at rounding level
        spec = chain(alpha=3, v=0.5, w=0.5, u=1.0, cells=200, detuning=1e-2)
        g, route = _subsystem_correlation(spec, 100)
        full = _counts_and_entropy(scipy.linalg.eigvals(_leading_block(g, route, 100)))
        assert full[0] == (1, 0, 0, 0)
        assert full[1].imag == pytest.approx(-np.pi, abs=1e-12)
        lam = _subsystem_eigvals(g, route, 100, np.linalg.eigvals)
        counts, value = _counts_and_entropy(lam)
        assert counts == full[0]
        assert abs(value.imag - full[1].imag) < 1e-12
        # without the guard the square root turns that rounding into edge pairs
        monkeypatch.setattr(entanglement, "_MU_FLOOR", 0.0)
        lam = _subsystem_eigvals(g, route, 100, np.linalg.eigvals)
        unguarded, _ = _counts_and_entropy(lam)
        assert unguarded[0] > 1

    @given(
        alpha=st.sampled_from((1, 2, 3)),
        v=st.sampled_from((0.5, 1.0, 2.0)),
        w=st.sampled_from((0.5, 1.0, 2.0)),
        u=st.sampled_from((0.3, 1.0)),
        detuning=st.sampled_from((1e-12, 1e-6, 1e-2)),
        cells=st.sampled_from((64, 200)),
        size=st.sampled_from((1, 2, 3, 7, 16, "L/4", "L/2")),
    )
    @settings(max_examples=80, derandomize=True, deadline=None)
    def test_halved_classification_matches_full_solve(self, alpha, v, w, u,
                                                      detuning, cells, size):
        spec = chain(alpha=alpha, v=v, w=w, u=u, cells=cells, detuning=detuning)
        ell = {"L/4": cells // 4, "L/2": cells // 2}.get(size, size)
        g, route = _subsystem_correlation(spec, ell)
        block = _leading_block(g, route, ell)
        full_counts, full_value = _counts_and_entropy(scipy.linalg.eigvals(block))
        lam = _subsystem_eigvals(g, route, ell, np.linalg.eigvals)
        counts, value = _counts_and_entropy(lam)
        assert counts == full_counts
        assert abs(value.imag - full_value.imag) < 1e-12

    def test_halved_re_s_matches_full_solve_on_fig2b(self):
        # fig2b at --scale 8, its largest block: about half of the real
        # modes sit just outside [0, 1], on a side that depends on the solver
        spec = chain(v=1, w=2, u=1, cells=1250, detuning=1e-12)
        g, route = _subsystem_correlation(spec, 312)
        block = _leading_block(g, route, 312)

        def re_s(lam):
            return pc.entropy(pc.classify_spectrum(0.5 + 0.5j * lam), BC).value.real

        halved = _subsystem_eigvals(g, route, 312, np.linalg.eigvals)
        assert np.array_equal(halved[:312], -halved[312:])  # the halved solve ran
        # measured: 9.6e-10
        assert abs(re_s(halved) - re_s(scipy.linalg.eigvals(block))) < 1e-8

    def test_re_s_precision_against_mpmath(self):
        """Re S of both solves against a 40-digit reference, on the fig2b
        chain. The block is made exactly reflection-odd first, so that the
        reference can take the same halving at 40 digits; at ell = 8 it is
        checked against a 40-digit eigensolve of the whole block."""
        spec = chain(v=1, w=2, u=1, cells=10000, detuning=1e-12)

        def reference(block):
            aa = mpmath.matrix(block[0::2, 0::2].tolist())
            ab_j = mpmath.matrix(block[0::2, 1::2][:, ::-1].tolist())
            mu = mpmath.mp.eig((aa - ab_j) * (aa + ab_j), left=False, right=False)
            roots = [mpmath.mp.sqrt(m) for m in mu]
            return roots + [-r for r in roots]

        def re_s(lam):
            spect = pc.classify_spectrum(0.5 + 0.5j * np.asarray(lam, dtype=complex))
            return pc.entropy(spect, BC).value.real

        M, _ = _correlation_block(spec, 30)
        M = (M - M[::-1, ::-1]) / 2
        assert np.array_equal(M[::-1, ::-1], -M)
        with mpmath.workdps(40):
            small = M[:16, :16]
            whole = mpmath.mp.eig(mpmath.matrix(small.tolist()), left=False, right=False)
            halved = reference(small)
            assert max(min(abs(x - y) for y in halved) for x in whole) < 1e-30
            exact = re_s([complex(x) for x in reference(M)])

        # the halves P = T - H, Q = T + H of this block: T = M_AA, H = M_AB J
        lam = _halved_eigvals(M[0::2, 0::2], M[0::2, 1::2][:, ::-1], np.linalg.eigvals)
        assert np.array_equal(lam[:30], -lam[30:])  # the halved solve ran
        err_full = abs(re_s(scipy.linalg.eigvals(M)) - exact)
        err_halved = abs(re_s(lam) - exact)
        # measured: 7.4e-13 and 2.5e-12
        assert err_full < 1e-11
        assert err_halved < 2e-11


class TestKSpaceHalves:
    """Each size's P and Q come from the coefficients g through strided
    views, with no 2 ell block formed except on the _MU_FLOOR fallback: the
    same bytes as the slices of the index-array block."""

    @staticmethod
    def coefficients(alpha, cells):
        spec = chain(alpha=alpha, v=1.0, w=2.0, u=1.0, cells=cells, detuning=1e-12)
        g, route = _subsystem_correlation(spec, cells)
        assert route == "k_space" and g.shape == (2, 2, cells)
        return g

    @staticmethod
    def solved(monkeypatch, g, ell):
        """The halves _subsystem_eigvals forms and the matrices it solves."""
        halves, matrices = [], []
        halved = entanglement._halved_eigvals

        def spy(t, h, eigvals):
            halves.append((t - h, t + h))
            return halved(t, h, eigvals)

        def eigvals(a):
            matrices.append(a.copy(order="K"))
            return np.linalg.eigvals(a)

        monkeypatch.setattr(entanglement, "_halved_eigvals", spy)
        _subsystem_eigvals(g, "k_space", ell, eigvals)
        return halves, matrices

    # ell > L/2 wraps (i - j) mod L, and ell = cells reaches every separation;
    # at ell = 100 the product's bits follow the layout of P and Q
    @pytest.mark.parametrize("alpha, cells, ells", [
        (1, 15, range(1, 16)), (1, 16, range(1, 17)), (2, 15, range(1, 16)),
        (2, 16, range(1, 17)), (1, 601, [100, 301, 450]),
    ], ids=["1-odd", "1-even", "2-odd", "2-even", "1-601"])
    def test_halves_are_the_block_slices(self, monkeypatch, alpha, cells, ells):
        g = self.coefficients(alpha, cells)
        for ell in ells:
            block = reference_toeplitz(g, ell, cells)
            aa, ab_j = block[0::2, 0::2], block[0::2, 1::2][:, ::-1]
            [(p, q)], [pq, *_] = self.solved(monkeypatch, g, ell)
            assert p.flags.c_contiguous and q.flags.c_contiguous
            assert p.tobytes() == (aa - ab_j).tobytes()
            assert q.tobytes() == (aa + ab_j).tobytes()
            assert pq.flags.f_contiguous
            assert pq.tobytes("A") == np.matmul(aa - ab_j, aa + ab_j,
                                                order="F").tobytes("A")

    @pytest.mark.parametrize("cells", [15, 16], ids=["odd", "even"])
    @pytest.mark.parametrize("alpha", [1, 2])
    def test_fallback_block_is_the_index_array_block(self, monkeypatch, alpha, cells):
        monkeypatch.setattr(entanglement, "_MU_FLOOR", np.inf)
        g = self.coefficients(alpha, cells)
        for ell in range(1, cells + 1):
            block = entanglement._toeplitz_correlation(g, ell)
            assert block.tobytes() == reference_toeplitz(g, ell, cells).tobytes()
            _, [_, solved] = self.solved(monkeypatch, g, ell)
            assert solved.flags.f_contiguous
            assert solved.tobytes("A") == np.asfortranarray(block).tobytes("A")

    def test_profile_forms_no_block_of_the_largest_size(self, monkeypatch):
        # fig2b at --scale 8 on the calling thread alone. Measured: a peak of
        # 2.5 MB, against 5.4 MB when the 624 x 624 block was formed and sliced
        spec = chain(v=1, w=2, u=1, cells=1250, detuning=1e-12)
        ells = [6, 9, 14, 21, 32, 48, 72, 108, 162, 208, 260, 312]
        monkeypatch.setattr(entanglement, "_usable_cpus", lambda: 1)
        tracemalloc.start()
        try:
            prof = pc.entropy_profile(spec, ells)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert prof.route == "k_space"
        assert peak < (2 * 312) ** 2 * np.dtype(float).itemsize


class TestRealSubsystemSpectra:
    """numpy's eigvals returns float64 when every eigenvalue is real, and
    sqrt of a negative float64 is NaN: the clean routes' eigensolves must
    come back complex, where the halved solve's mu are all real (u = 0) and
    where an open chain's leading blocks have only real eigenvalues."""

    @staticmethod
    def solved(block, route):
        """The matrix the route's eigensolve takes: the halved product P Q
        on the k-space route, the block itself on the others."""
        if route != "k_space":
            return block
        aa, ab_j = block[0::2, 0::2], block[0::2, 1::2][:, ::-1]
        return (aa - ab_j) @ (aa + ab_j)

    @pytest.mark.parametrize("spec, ells", [
        (chain(alpha=2, v=1, w=2, u=0, cells=16), range(1, 16)),
        (chain(alpha=1, v=0.5, w=2, u=1.5, cells=16, boundary="obc"), [1]),
        (chain(alpha=2, v=1, w=2, u=2.5, cells=16, boundary="obc"), [1, 2]),
    ], ids=["hermitian-pbc", "open-alpha1", "open-alpha2"])
    def test_come_back_complex_and_match_the_full_solve(self, spec, ells):
        ells = list(ells)
        corr, route = _subsystem_correlation(spec, ells[-1])
        prof = pc.entropy_profile(spec, ells, REG)
        assert prof.route == route
        for ell, value in zip(ells, prof.values):
            block = _leading_block(corr, route, ell)
            assert np.isrealobj(np.linalg.eigvals(self.solved(block, route)))
            lam = _subsystem_eigvals(corr, route, ell, np.linalg.eigvals)
            assert lam.dtype == complex and np.all(np.isfinite(lam))
            full = pc.entropy(pc.classify_spectrum(0.5 + 0.5j * scipy.linalg.eigvals(block)),
                              REG).value
            assert abs(value - full) < 1e-10


class TestCleanRoutePrecision:
    """The clean routes' blocks against 40-digit references: both sit at
    rounding level (README, "Numerical tolerances"), while the dense route's
    error grows as eps ||A|| / kappa^2."""

    @pytest.mark.parametrize("detuning", [1e-12, 1e-10, 1e-8])
    def test_k_space_block_against_mpmath_dft(self, detuning):
        # fig2b couplings: the gap closes at k = 0, where v - w is exact
        spec = chain(v=1, w=2, u=1, cells=200, detuning=detuning)
        L, ell = spec.cells, 20
        M, route = _correlation_block(spec, ell)
        assert route == "k_space"
        with mpmath.workdps(40):
            u = mpmath.mpf(spec.u_eff)
            phase = [mpmath.expjpi(mpmath.mpf(2 * j) / L) for j in range(L)]  # e^{i k_j}
            v_k = [spec.v - spec.w * phase[-j % L] for j in range(L)]
            inv_e = [1 / mpmath.sqrt(abs(x) ** 2 - u * u) for x in v_k]
            entries = ([-u * x for x in inv_e],
                       [-x.conjugate() * y for x, y in zip(v_k, inv_e)],
                       [x * y for x, y in zip(v_k, inv_e)], [u * x for x in inv_e])

            def inverse_dft(c, r):
                return float(mpmath.fsum(c[j] * phase[j * r % L] for j in range(L)).real / L)

            g = {r: [inverse_dft(c, r) for c in entries] for r in range(1 - ell, ell)}
        ref = np.array([[g[i // 2 - j // 2][2 * (i % 2) + j % 2] for j in range(2 * ell)]
                        for i in range(2 * ell)])
        # measured: 3.9e-16, 4.8e-16 and 7.7e-16
        assert np.max(np.abs(M - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_singular_mode_block_against_mpmath_svd(self):
        # a finite open chain's gap, not the detuning, sets its kappa, so one
        # detuning serves; of (alpha, v, w) = (1, 2, 1), (1, 1, 2), (2, 1, 2)
        # this coupling set erred most
        spec = chain(v=2, w=1, u=1, cells=40, boundary="obc", detuning=1e-12)
        ell = 10
        M, route = _subsystem_correlation(spec, ell)
        assert route == "singular_mode"
        V = np.diag(np.full(40, spec.v)) + np.diag(np.full(39, -spec.w), 1)
        with mpmath.workdps(40):
            u = mpmath.mpf(spec.u_eff)
            a, s, bt = mpmath.svd_r(mpmath.matrix(V.tolist()))
            ref = mpmath.zeros(2 * ell)
            for k in range(len(s)):
                if s[k] < u:
                    continue  # a half-filled pair on the imaginary axis drops out
                e = mpmath.sqrt(s[k] ** 2 - u * u)
                for i in range(ell):
                    for j in range(ell):
                        ref[2 * i, 2 * j] -= u * a[i, k] * a[j, k] / e
                        ref[2 * i + 1, 2 * j + 1] += u * bt[k, i] * bt[k, j] / e
                        ref[2 * i + 1, 2 * j] += s[k] * bt[k, i] * a[j, k] / e
                        ref[2 * i, 2 * j + 1] -= s[k] * a[i, k] * bt[k, j] / e
            ref = np.array(ref.tolist(), dtype=float)
        # measured: 1.8e-14
        assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))


# ---------------------------------------------------------------------------
# Concurrent subsystem solves on numpy's dgeev
# ---------------------------------------------------------------------------

LAPACK = spectral._numpy_lapack()

#: (spec, sizes): a fig2b-like periodic chain, an open sm-s5-like chain, and
#: a periodic block whose size 100 takes the _MU_FLOOR 2 ell fallback
CONCURRENT_CASES = [
    pytest.param(chain(v=1, w=2, u=1, cells=400, detuning=1e-12),
                 [6, 9, 14, 21, 32, 48, 72, 108, 162, 200], id="fig2b-like"),
    pytest.param(chain(v=2, w=1, u=1, cells=100, boundary="obc", detuning=1e-12),
                 list(range(1, 26)), id="sm-s5-like"),
    pytest.param(chain(alpha=3, v=0.5, w=0.5, u=1.0, cells=200, detuning=1e-2),
                 [10, 50, 100], id="mu-floor"),
]


def numpy_eigvals(a):
    """Eigenvalues from the bound ``dgeev`` of numpy's LAPACK, as the clean
    routes solve their subsystem blocks."""
    return spectral._geev(spectral._numpy_lapack(), a)


@pytest.fixture
def blas_threads():
    """Set numpy's BLAS thread count for the test, restored after it."""
    previous = LAPACK.get_threads()
    yield LAPACK.set_threads
    LAPACK.set_threads(previous)


def profile_on(monkeypatch, cpus, spec, ells):
    monkeypatch.setattr(entanglement, "_usable_cpus", lambda: cpus)
    return pc.entropy_profile(spec, ells, REG)


def assert_same_profile(a, b):
    assert np.array_equal(a.values, b.values)
    for name in ("n_edge_pairs", "n_quartets", "n_residual"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


@pytest.mark.skipif(LAPACK is None, reason="numpy does not export its dgeev")
class TestConcurrentSolves:
    def test_mu_floor_case_takes_the_full_solve(self, monkeypatch):
        calls = []

        def record(lapack, a):
            calls.append(a.shape)
            return spectral._geev(lapack, a)

        monkeypatch.setattr(entanglement, "_geev", record)
        profile_on(monkeypatch, 2, *CONCURRENT_CASES[2].values)
        # each size solves P Q; sizes 10 and 100 then solve their block whole
        assert sorted(calls) == [(10, 10), (20, 20), (50, 50), (100, 100), (100, 100),
                                 (200, 200)]

    @pytest.mark.parametrize("spec, ells", CONCURRENT_CASES)
    def test_profile_identical_on_one_and_two_cpus(self, monkeypatch, spec, ells):
        # one CPU solves on the calling thread alone, two on two threads, each
        # solve on one BLAS thread whatever the caller's count
        serial = profile_on(monkeypatch, 1, spec, ells)
        concurrent = profile_on(monkeypatch, 2, spec, ells)
        assert (serial.workers, concurrent.workers) == (1, 2)
        assert_same_profile(serial, concurrent)

    def test_size_identical_alone_and_in_the_profile(self, monkeypatch, blas_threads):
        # a k-space size is formed from the same coefficients at any largest
        # size, and a size requested alone solves on one BLAS thread too, not
        # the caller's two
        blas_threads(2)
        spec, ells = CONCURRENT_CASES[0].values
        profile = profile_on(monkeypatch, 2, spec, ells)
        for ell, value in zip(ells, profile.values):
            alone = profile_on(monkeypatch, 2, spec, [ell])
            assert alone.workers == 1
            assert np.array_equal(alone.values, [value])

    def test_one_cpu_ignores_the_callers_blas_threads(self, monkeypatch, blas_threads):
        spec, ells = CONCURRENT_CASES[0].values
        profiles = []
        for threads in (1, 2):
            blas_threads(threads)
            profiles.append(profile_on(monkeypatch, 1, spec, ells))
        assert [p.workers for p in profiles] == [1, 1]
        assert_same_profile(*profiles)
        assert LAPACK.get_threads() == 2

    @pytest.mark.parametrize("spec, ells", CONCURRENT_CASES)
    def test_kernel_matches_numpy_eigvals(self, monkeypatch, blas_threads, spec, ells):
        blas_threads(1)
        corr, route = _subsystem_correlation(spec, ells[-1])
        for ell in ells:
            lam = _subsystem_eigvals(corr, route, ell, numpy_eigvals)
            assert np.array_equal(lam, _subsystem_eigvals(corr, route, ell,
                                                          np.linalg.eigvals))
        # and a whole profile, where numpy exports no dgeev
        concurrent = profile_on(monkeypatch, 2, spec, ells)
        monkeypatch.setattr(entanglement, "_numpy_lapack", lambda: None)
        fallback = profile_on(monkeypatch, 2, spec, ells)
        assert fallback.workers == 1
        assert_same_profile(concurrent, fallback)

    def test_kernel_copies_what_it_may_not_overwrite(self):
        # a C-ordered block, as the profile slices them, or a read-only one
        rng = np.random.default_rng(0)
        for order, writeable in (("C", True), ("F", False)):
            a = np.array(rng.standard_normal((6, 6)), order=order)
            a.flags.writeable = writeable
            kept = a.copy()
            lam = numpy_eigvals(a)
            assert np.array_equal(a, kept)
            assert np.array_equal(lam, np.linalg.eigvals(a).astype(complex))

    @staticmethod
    def failing_dgeev(monkeypatch, info):
        """numpy's dgeev, which reports ``info`` on every call that is not a
        workspace query."""
        real = LAPACK.dgeev

        def dgeev(*args):
            real(*args)
            if args[12].value != -1:  # lwork
                args[13].value = info

        for module in (spectral, entanglement):
            monkeypatch.setattr(module, "_numpy_lapack",
                                lambda: LAPACK._replace(dgeev=dgeev))

    def test_no_convergence_raises_linalg_error(self, monkeypatch):
        self.failing_dgeev(monkeypatch, 3)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            numpy_eigvals(np.eye(4))

    @pytest.mark.parametrize("a, message", [
        (np.array([[np.nan, 0.0], [0.0, 1.0]]), "infs or NaNs"),
        (np.ones((2, 3)), "square"),
        (np.ones(4), "square"),
    ], ids=["nan", "rectangular", "vector"])
    def test_malformed_matrix_refused(self, a, message):
        # dgeev would read n x n entries of whatever it is given
        with pytest.raises(np.linalg.LinAlgError, match=message):
            numpy_eigvals(a)

    @pytest.mark.parametrize("fails", [False, True])
    def test_blas_thread_count_restored(self, monkeypatch, blas_threads, fails):
        blas_threads(2)
        seen = []

        def record(lapack, a):
            seen.append(LAPACK.get_threads())
            return spectral._geev(lapack, a)

        monkeypatch.setattr(entanglement, "_geev", record)
        spec, ells = CONCURRENT_CASES[0].values
        if fails:
            self.failing_dgeev(monkeypatch, 1)
            with pytest.raises(np.linalg.LinAlgError):
                profile_on(monkeypatch, 2, spec, ells)
        else:
            assert profile_on(monkeypatch, 2, spec, ells).workers == 2
            assert len(seen) == len(ells)
        assert seen and set(seen) == {1}
        assert LAPACK.get_threads() == 2

    def test_many_threads_lose_no_size(self, monkeypatch):
        # more threads than cores, switching as often as the interpreter
        # allows: a size solved twice or dropped would change the profile
        spec, ells = chain(v=1, w=2, u=1, cells=120, detuning=1e-12), list(range(1, 61))
        serial = profile_on(monkeypatch, 1, spec, ells)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            crowded = profile_on(monkeypatch, 16, spec, ells)
        finally:
            sys.setswitchinterval(interval)
        assert crowded.workers == 16
        assert_same_profile(serial, crowded)

    def test_helpers_do_not_outlive_the_profile(self, monkeypatch):
        before = threading.active_count()
        profile_on(monkeypatch, 2, *CONCURRENT_CASES[0].values)
        assert threading.active_count() == before

    def test_profile_records_workers(self, monkeypatch):
        field = dataclasses.fields(pc.EntropyProfile)[-1]
        assert (field.name, field.default) == ("workers", 1)
        prof = profile_on(monkeypatch, 8, *CONCURRENT_CASES[2].values)
        assert type(prof.workers) is int and prof.workers == 3  # one per size
        dense = pc.ChainSpec(v=1.0, w=2.0, u=1.0, cells=12, detuning=1e-6,
                             disorder=pc.DisorderProfile(0.3 * np.cos(np.arange(12))))
        assert profile_on(monkeypatch, 8, dense, [2, 4, 6]).workers == 1


# ---------------------------------------------------------------------------
# Singular modes from the bidiagonal hopping block
# ---------------------------------------------------------------------------


def dense_singular_mode_block(spec, cells, tol_zero=spectral.TOL_ZERO):
    """The singular-mode block from ``np.linalg.svd`` of the whole L x L
    hopping block V, every one of its triples summed."""
    u = spec.u_eff
    a, sv, bt = np.linalg.svd(pc.lattice._hopping_block(spec))
    e = spectral._half_filled_energies(sv, u, tol_zero)
    inv_e = np.divide(1.0, e, out=np.zeros_like(e), where=e > 0)
    a, b = a[:cells], bt[:, :cells].T
    M = np.empty((2 * cells, 2 * cells))
    M[0::2, 0::2] = (a * (-u * inv_e)) @ a.T
    M[1::2, 0::2] = (b * (sv * inv_e)) @ a.T
    M[0::2, 1::2] = -M[1::2, 0::2].T
    M[1::2, 1::2] = (b * (u * inv_e)) @ b.T
    return M


def without_numpy_lapack(monkeypatch):
    """As where numpy exports no LAPACK symbols: the dense B's
    ``np.linalg.svd``, at the caller's BLAS thread count."""
    for module in (spectral, entanglement):
        monkeypatch.setattr(module, "_numpy_lapack", lambda: None)


#: (alpha, cells of the chain, cells of the block): the last two blocks
#: reach past B's n = 10 rows into V's zero rows
BLOCK_CASES = [(1, 40, 10), (1, 12, 12), (2, 40, 10), (2, 12, 12), (3, 40, 10),
               (3, 12, 11), (3, 12, 12)]


@pytest.mark.skipif(LAPACK is None, reason="numpy does not export its LAPACK")
class TestBidiagonalSingularModes:
    @pytest.mark.parametrize("alpha, L, cells", BLOCK_CASES)
    @pytest.mark.parametrize("v, w", [(2.0, 1.0), (1.0, 2.0), (0.5, 2.0)])
    def test_block_matches_the_dense_svd(self, blas_threads, alpha, L, cells, v, w):
        # at one BLAS thread alpha = 1 takes np.linalg.svd's bits; V's zero
        # rows and columns move the rounding of alpha >= 2
        blas_threads(1)
        spec = chain(alpha=alpha, v=v, w=w, u=1.0, cells=L, boundary="obc",
                     detuning=1e-12)
        M, route = _subsystem_correlation(spec, cells)
        ref = dense_singular_mode_block(spec, cells)
        assert route == "singular_mode" and M.shape == ref.shape
        if alpha == 1:
            assert np.array_equal(M, ref)
        else:
            # measured: at most 1.1e-14
            assert np.max(np.abs(M - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("alpha, L, cells", BLOCK_CASES)
    def test_fallback_agrees(self, monkeypatch, alpha, L, cells):
        spec = chain(alpha=alpha, v=1.0, w=2.0, u=1.0, cells=L, boundary="obc",
                     detuning=1e-12)
        M, _ = _subsystem_correlation(spec, cells)
        E0 = pc.ground_state_energy(spec)
        without_numpy_lapack(monkeypatch)
        fallback, route = _subsystem_correlation(spec, cells)
        assert route == "singular_mode"
        # np.linalg.svd of B ends in the same bidiagonal stage; measured:
        # the same bits on these chains at the default BLAS thread count
        assert np.max(np.abs(fallback - M)) <= 1e-14 * np.max(np.abs(M))
        assert abs(pc.ground_state_energy(spec) - E0) <= 1e-14 * abs(E0)

    def test_independent_of_the_callers_blas_threads(self, blas_threads):
        spec = chain(alpha=2, v=1.0, w=2.0, u=1.0, cells=400, boundary="obc",
                     detuning=1e-12)
        blocks, energies = [], []
        for threads in (1, 2):
            blas_threads(threads)
            blocks.append(_subsystem_correlation(spec, 100)[0])
            energies.append(pc.ground_state_energy(spec))
            assert LAPACK.get_threads() == threads
        assert np.array_equal(*blocks)
        assert energies[0] == energies[1]

    @pytest.mark.parametrize("lapack", [True, False], ids=["numpy-lapack", "fallback"])
    @pytest.mark.parametrize("alpha", [2, 3])
    def test_zero_singular_values_make_u0_ambiguous(self, monkeypatch, lapack, alpha):
        # V's alpha - 1 zero singular values are real zero modes at u = 0
        if not lapack:
            without_numpy_lapack(monkeypatch)
        spec = chain(alpha=alpha, v=2.0, w=1.0, u=0.0, cells=12, boundary="obc")
        with pytest.raises(AmbiguousFilling):
            pc.ground_state_energy(spec)
        with pytest.raises(AmbiguousFilling):
            _subsystem_correlation(spec, 12)
