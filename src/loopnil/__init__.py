"""Exact lower-central-series towers of loop groups on finite reduced
simplicial sets: Hall bases, free nilpotent arithmetic, graded layers, and
Moore-complex homotopy, all over the integers."""

from .abelian import AbelianInvariants
from .caps import Caps, current_caps
from .errors import (
    CapExceeded,
    IdentityViolation,
    InputError,
    InternalInvariantError,
    LoopnilError,
    MalformedJson,
    SchemaViolation,
)
from .hall import (
    LieElement,
    cross_effect_kernel,
    hall_basis,
    lie_normalize,
    lie_of_map,
    tree_str,
    witt_rank,
)
from .linearize import SimplicialAbelianGroup, moore_homology
from .nilpotent import (
    NilpotentElement,
    NilpotentHom,
    apply_hom,
    collect,
    compose_homs,
    generator_element,
    graded_layer,
    identity_element,
    identity_hom,
    nil_commutator,
    nil_inverse,
    nil_multiply,
    nil_power,
    projection_hom,
)
from .nilq import PolycyclicQuotient, free_nilpotent_layers, nilpotent_quotient
from .simplicial import (
    SimplexRef,
    SimplicialSet,
    moore_space,
    point,
    sphere,
    standard_space,
    validate,
    wedge,
    wedge_of_circles,
)
from .tower import (
    LayerObject,
    LoopGroup,
    SimplicialGroupTower,
    layer,
    layer_homotopy,
    loop_group,
    pi0,
    tower_stage,
)

__version__ = "0.1.0"
