"""Khovanov-type homology of band-link diagrams on surfaces with boundary."""

from .surface import (
    Band,
    Catalogue,
    CurveClass,
    CurveKind,
    GradingS,
    SurfaceModel,
    classify,
    grading_add,
    grading_flip,
    grading_negate,
    parse_word,
    reduce_cyclic,
    word_text,
)
from .diagram import (
    Circle,
    Diagram,
    Edge,
    R3Site,
    apply_r1_neg,
    apply_r1_pos,
    apply_r2,
    apply_r3,
    mirror,
    reorder_crossings,
    smooth,
    smooth_crossing,
)
from .state_complex import EnhancedState, GradedComplex, StateKey
from .homology import (
    AbelianGroup,
    HomologyTable,
    aggregate_handlebody,
    homology,
    smith_normal_form,
    table_isomorphic,
)
from .skein import (
    BasisElement,
    LaurentPolyA,
    bracket_recursive,
    euler_characteristic,
    kauffman_bracket,
    moebius_grouped_sums,
    phi_expand,
    recover_p,
)
from .textformat import emit_diagram, parse_diagram

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
