"""commbound: a workbench for sign-matrix composition lower bounds.

Computes exact ranks and singular spectra of sign matrices, approximate
polynomial degrees and their dual witnesses, discrepancy-based complexity
measures, and the lower-bound main terms for block-composed two-party
functions, including the general finite-group form.
"""

__version__ = "0.1.0"

from .approx import (ApproxDegreeResult, DualWitness, approx_degree,
                     best_approximation, dual_polynomial, verify_dual)
from .boolfn import (BoolFunction, builtin_function, character_eval, degree,
                     iwht, wht)
from .bounds import (BoundReport, DistributionMatrix, SpectralDiscCert,
                     approx_trace_lower, disc_bound, discrepancy,
                     gamma2_star_interval, shaltiel_verify, sherstov_bound,
                     shizhu_bound, uniform_discrepancy, verify_spectral_disc)
from .composer import (Composition, WitnessMatrix, build_witness,
                       char_compose, compose_block, verify_rank_theorem,
                       witness_spectral_bound)
from .errors import CommboundError, ResourceLimitError
from .groupcomp import (AbelianGroupSpec, CharacterTable, GroupMapMatrix,
                        HardnessPartition, all_pairs_invariant,
                        block_group_bound, characters_abelian,
                        degeneration_check, distance_to_easy, dual_h,
                        g_invariant, general_bound, orthogonality_general,
                        orthogonality_sums, pair_counts, pair_multisets,
                        product_approx_degree, regularity_check, tprime_check)
from .matrices import (BalanceReport, ContainmentResult,
                       CORE_FREE_6, HADAMARD_2, PATTERN_CORE_4, SignMatrix,
                       SpectrumReport, XOR_2, all_ones, balance_check,
                       builtin_matrix, canonical_form, contains_pattern,
                       exact_rank, is_canonical, spectrum,
                       search_strongly_balanced, tensor)
