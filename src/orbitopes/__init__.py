"""Exact arithmetic for orbit polytopes and their composition calculus."""

from .compositions import (
    Composition,
    compositions_of,
    concat,
    iterated_restrict,
    multinomial,
    near_concat,
    restrict_contract,
    splits,
)
from .geometry import (
    GroundSet,
    OrderedSetPartition,
    Point,
    SubmodularOracle,
    chamber_census,
    check_base_polytope,
    composition_of_point,
    face_decomposition,
    max_face_vertices,
    normally_equivalent,
    orbit_vertices,
    representative_point,
    standard_ground,
    submodular_of_orbit,
)
from .hopf_monoid import (
    OrbitClassElement,
    class_of,
    count_structures,
    delta,
    delta_iterated,
    mu,
    relabel,
)
from .hopf_algebra import (
    GeneratorMultiset,
    HopfElement,
    TensorElement,
    antipode,
    coproduct,
    counit,
    inject,
    product,
)
from .characters import (
    Character,
    NSymSeries,
    char_to_series,
    convolve,
    in_group_G,
    invert_character,
    ribbon_mul,
    series_inverse,
    series_mul,
    series_to_char,
)
from .invariants import (
    BinomialPolynomial,
    basic_character,
    chi,
    chi_bruteforce,
    chi_element,
    from_monomial,
    to_monomial,
)

__version__ = "0.1.0"
