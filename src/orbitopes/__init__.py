"""Exact arithmetic for orbit polytopes and their composition calculus.

Importing the package loads no submodule.  Each public name is imported
from its defining module on first access (PEP 562), so a caller, the CLI
included, compiles and runs only the modules it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the names the package re-exports from it
_EXPORTS = {
    "compositions": (
        "Composition", "compositions_of", "concat", "iterated_restrict", "multinomial",
        "near_concat", "restrict_contract", "splits",
    ),
    "geometry": (
        "GroundSet", "Point", "chamber_census", "check_base_polytope", "composition_of_point",
        "face_decomposition", "max_face_vertices", "normally_equivalent", "orbit_vertices",
        "representative_point", "standard_ground",
    ),
    "hopf_monoid": (
        "OrbitClassElement", "class_of", "count_structures", "delta", "mu",
    ),
    "hopf_algebra": (
        "GeneratorMultiset", "HopfElement", "TensorElement", "antipode", "coproduct", "counit",
        "inject", "product",
    ),
    "characters": (
        "Character", "NSymSeries", "char_to_series", "convolve", "in_group_G",
        "invert_character", "series_inverse", "series_mul", "series_to_char",
    ),
    "invariants": (
        "BinomialPolynomial", "chi", "chi_bruteforce", "to_monomial",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_HOME)


def __getattr__(name: str):
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
