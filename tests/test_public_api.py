"""The public API, ``ptchain.__all__``, against a sorted snapshot.

A name leaves or joins the API only by a deliberate edit of this list.
"""

import ptchain as pc

PUBLIC_API = [
    "BiorthogonalSystem", "BoundState", "Boundary", "ChainSpec", "ComplexEntropy",
    "CorrelationMatrix", "DensityProfile", "DisorderProfile", "EdgeRootSet",
    "EnsembleStats", "EntanglementEnergies", "EntanglementSpectrum", "EntropyProfile",
    "FitResult", "FixedCount", "InterfaceSpec", "ModeLabel", "OccupationSet", "PTClass",
    "Prescription", "Provenance", "SymmetryReport", "ToleranceSet", "TopologyResult",
    "UntilRMSE", "UntilSSE", "biorthogonal_diagonalize", "bloch_hamiltonian",
    "build_interface", "build_real_space", "casimir_energy_table", "casimir_fit",
    "cc_fit_obc", "cc_fit_pbc", "characterize", "classify_pt", "classify_spectrum",
    "continuum_edge_roots", "correlation_k_space", "correlation_matrix",
    "density_profile", "disorder_ensemble", "dispersion", "edge", "entanglement",
    "entanglement_energies", "entropy", "entropy_profile", "errors", "fits",
    "ground_state_energy", "half_filling_weights", "interface_continuum",
    "interface_density", "interface_lattice_solve", "lattice", "min_abs_vk",
    "occupied_correlation", "ph_pairing_residual", "rng", "select_half_filling",
    "spectral", "symmetry_closure", "topology", "vk", "winding_number", "zak_phase",
]


def test_public_api_matches_snapshot():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert sorted(pc.__all__) == PUBLIC_API
    assert len(set(pc.__all__)) == len(pc.__all__)
