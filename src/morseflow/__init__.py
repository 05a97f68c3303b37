"""Discrete Morse theory on regular CW complexes via localized path categories."""

from .complexes import (
    Cell,
    Complex,
    SignInconsistency,
    ValidationReport,
    assign_incidence_signs,
    cellular_chain_complex,
    validate_complex,
)
from .categories import (
    HomPoset,
    Morphism,
    NoAtom,
    PCategory,
    atom,
    entrance_path_category,
    face_poset_category,
    find_homotopy_extremal,
    is_cellular,
    poset_as_pcategory,
)
from .matchings import (
    BadPair,
    Matching,
    MorseSystem,
    check_acyclic,
    check_mildness,
    matching_to_morse_system,
    morse_system_from_arrows,
    restriction_category,
    validate_morse_system,
)
from .localization import (
    EssentialChain,
    FlowCategory,
    LocalizationInconsistency,
    OrderViolation,
    Zigzag,
    ZigzagClass,
    Zigzags,
    enumerate_zigzags,
    essential_chain,
    flow_category,
    hom_poset_loc,
    reduce_zigzag,
    stabilized_flow,
    zigzag_from_text,
    zigzag_to_text,
)
from .nerves import (
    SimplicialSetSkeleton,
    geometric_nerve,
    nerve_homology,
    normalized_chain_complex,
    order_complex,
)
from .homology import (
    ChainComplex,
    HomologySummary,
    NotAComplex,
    homology,
    invariant_factors,
)
from .rings import Mat, NotInvertible, PrimeField, QQ, Ring, ZZ, ring_from_name
from .cosheaves import (
    Cosheaf,
    MorseComplex,
    constant_cosheaf,
    cosheaf_homology,
    morse_chain_complex,
    transport,
    validate_cosheaf,
)

__all__ = [name for name in dir() if not name.startswith("_")]
