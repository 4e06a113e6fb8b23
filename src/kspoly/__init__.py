"""Fifteen-fold symmetric Kochen-Specker parity proofs of the 600-cell,
the 120-cell, and Gosset's polytope: ray systems and word algebra, exact
GF(2) proof counting via the MacWilliams identities, proof verification
and decomposition, and an independent golden-ring/E8 geometric check."""

from .datasets import load_polytope
from .raysystem import (Basis, BasisTable, Generator, PentadecagonLayout,
                        ProfileMatrix, RayBasisSymbol, Word, basis_profile,
                        build_basis_table, build_profile_matrix,
                        compose_words, expand_orbit, parse_word,
                        ray_basis_symbol, render_word, symbol_from_word,
                        word_to_bases)
from .gf2 import (BitMatrix, CodeSpec, WeightDistribution,
                  dual_weight_distribution, enumerate_words, gf2_nullspace,
                  is_minimal_word, macwilliams_transform, minimality_bound,
                  nullspace_of_profiles, odd_weight_total)
from .contextuality import (ParityCertificate, Proof, find_ks_assignment,
                            incidence_nullspace_proofs, classify_decomposition,
                            proof_from_word, verify_parity_proof)
from .geometry import (RaySet, build_120cell_rays, coxeter_projection,
                       e8_rays, enumerate_bases, icosian_600cell,
                       match_labeling, orthogonality_graph, rigidity_demo)
from .golden import ALPHA, BETA, phi_map

__version__ = "0.1.0"
