"""ybx: exact-arithmetic toolkit for constant Yang-Baxter matrices.

Construct, verify, transform, classify, and compare matrix solutions of the
constant Yang-Baxter equation, with exact rational or Gaussian-rational
arithmetic throughout and a complex-float backend for values outside those
fields.
"""

from .braid import (
    BraidWord,
    cabled_crossing_word,
    feta,
    fio,
    fox,
    free_reduce,
    half_twist_word,
    parse_word,
)
from .catalog import (
    CatalogEntry,
    catalog_entry,
    catalog_get,
    catalog_ids,
    enumerate_permutation_solutions,
    involutive_class_count,
    jordan_template_matches,
    match2_family_list,
    partition_count,
    permutation_to_ybo,
    sample_entry_binding,
)
from .constructions import (
    boxplus,
    cable,
    ds_certificates_check,
    ds_intertwiner,
    ds_transform,
    farr_obj,
    flip_conj,
    inverse_obj,
    is_automorphism,
    lash,
    phi_q,
    scale_obj,
    transpose_obj,
)
from .core import (
    YBObject,
    braid_relations_check,
    cc_shape_level2,
    generator_image,
    group_type_build,
    group_type_ybe_condition,
    is_additive_cc,
    is_charge_conserving,
    is_group_type,
    is_involutive,
    is_monomial,
    is_permutation,
    is_unitary,
    is_ybe,
    make_ybo,
    reversal_conjugation_check,
    rho,
    strip_to_permutation,
)
from .equivalence import (
    InvariantReport,
    PEquivCertificate,
    flip_word_traces,
    local_distinguish,
    local_invariants,
    local_witness_search,
    match_stabilizer_check,
    p_equivalent,
    target_stabilizer,
    weighted_flip,
    x_symmetry_check,
)
from .errors import YbxError
from .expressions import ParamBinding, eval_expr, parse_expr, sample_binding
from .scalars import Backend, GaussianRational, format_scalar
from .spectral import QuadSurd, char_poly, jordan_structure, spectrum
from .structure import (
    EndoElement,
    QuotientTriple,
    SegreResult,
    SubobjectTriple,
    decomposability,
    duality_verify,
    end_search,
    end_verify,
    extract_from_endo,
    hom_verify,
    realign,
    segre_eigenvectors,
)
from .tensor import (
    Matrix,
    farr,
    flip_matrix,
    index_to_word,
    kron,
    pseudo_inverse,
    swap_matrix,
    word_to_index,
)

__all__ = [name for name in dir() if not name.startswith("_")]
