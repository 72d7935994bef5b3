"""Lie-theoretic Stokes data of the tt*-Toda meromorphic connection.

Root systems and Chevalley bases (exact), the Coxeter plane of singular
directions, the ad(E_+) spectrum, the Steinberg cross-section pipeline for
the canonical Stokes element M0, and a numerical monodromy oracle.
"""

from .chevalley import ChevalleyAlgebra, build_chevalley
from .coxeter import (
    Bipartition,
    CoxeterPlaneDiagram,
    TheoremCheckError,
    bipartition,
    coxeter_element,
    coxeter_plane,
    gamma_orbits,
    inversion_set,
    kostant_chain,
    singular_directions,
)
from .oracle import (
    MonodromyReport,
    build_system,
    formal_solution,
    numerical_monodromy,
)
from .rootcore import (
    AlgebraType,
    RootSystem,
    UnsupportedTypeError,
    build_root_system,
    diagram_involution,
    dual_data,
    highest_root_marks,
)
from .spectrum import ad_spectrum, build_e_plus, match_plane
from .steinberg import (
    InadmissibleError,
    StokesData,
    alcove_map,
    semisimple_spectrum_check,
    steinberg_section,
    stokes_from_asymptotics,
    torus_character_values,
    verify_factor_supports,
)
from .characters import (
    CharacterScaleError,
    character_value,
    fundamental_characters,
)
from .weightrep import fundamental_representation, registered_representation

__version__ = "0.1.0"
