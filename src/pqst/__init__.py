"""Partial quantum shadow tomography (PQST) for registers of up to 4 qubits.

Reconstruct targeted density-matrix element classes from small sets of local
{1, H, HS} measurement unitaries with a pseudo-inverse map, combine partial
state estimators into full reconstructions, and benchmark against Pauli,
global-Clifford, and MUB classical shadows.
"""

from .qcore import (DensityMatrix, QcoreError, entanglement_measure, fidelity,
                    fidelity_with_clip, jacobi_eigh, load_density_matrix,
                    purity, save_density_matrix, spawn_rng, spectral_norm)
from .operators import (Observable, ObservableError, PauliString,
                        activity_of_indices, activity_support,
                        format_observable, is_x_structured, parse_observable,
                        pattern_mask, pattern_name, rotate_to_x_structure)
from .ensembles import (EnsembleError, UnitaryEnsemble, clifford_ensemble,
                        mub_ensemble, parse_ensemble_list, parse_ensemble_spec,
                        pauli_local_ensemble, zeta_A, zeta_m_active,
                        zeta_union, zeta_x)
from .channels import (ChannelError, apply_inverse, depolarizing_channel,
                       forward_channel_exact, pseudo_inverse)
from .shadow import (CoverageError, PartialShadowEstimator, combine_pses,
                     ensemble_pse, estimate_observable, pattern_owners,
                     reconstruct_state, sampled_pse)
from .bench import (Fixture, MseResult, fit_scaling, load_fixture,
                    mse_experiment, nmr_pipeline_sim, pqst_auto_ensembles,
                    write_csv)
from .golden import run_validation

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
