"""Computations with diagonal p-torsion group actions on generalized
Fermat varieties: fixed-point structure, freely-acting subgroup
enumeration and classification, cohomological invariants, hyperbolicity
verdicts, and invariant-monomial quotient models."""

__version__ = "0.1.0"

from .groups import (  # noqa: F401
    GroupParams,
    GroupElement,
    Subgroup,
    GeneratorPermutation,
    elem_normalize,
    generator,
    word,
    subgroup_from_generators,
    quotient_rank,
    subgroup_canonical_key,
    autg_apply,
)
from .fixed_points import (  # noqa: F401
    level_sets,
    has_fixed_points,
    fixed_locus_strata,
    acts_freely_subgroup,
    free_rank_bound,
)
from .enumeration import (  # noqa: F401
    EnumerationTask,
    necessary_bounds,
    enumerate_all,
    classify_orbits,
    construct_family,
    gaussian_binomial,
)
from .geometry import (  # noqa: F401
    Arrangement,
    VarietyModel,
    ProjectivePoint,
    random_omega_sample,
    fermat_model,
    fiber_over,
    pi_project,
)
from .cohomology import (  # noqa: F401
    canonical_twist,
    h0_twist,
    h0_oracle,
    h_i,
    plurigenus,
    genus_profile,
    rh_genus,
    hyperbolicity_verdict,
)
from .invariants import (  # noqa: F401
    DiagonalAction,
    action_from_subgroup,
    is_invariant,
    hilbert_basis,
    BinomialRelations,
    find_binomial_relations,
    verify_relations,
    linear_relations,
    induced_action,
)
