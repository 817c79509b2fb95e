"""Signed tilings of R^(r+k) from fragment matrices, in exact rational arithmetic."""

from .linalg import (
    DimensionError,
    LinalgError,
    Matrix,
    SingularMatrixError,
    det,
    inverse,
    solve,
    vector,
)
from .fragments import (
    DEGENERATE,
    NEGATIVE,
    POSITIVE,
    Decomposition,
    DegenerateFragmentError,
    Dimensions,
    Fragment,
    FragmentSet,
    complement,
    decompose,
    fragment_matrix,
    fragment_rows,
    fragment_set,
    laplace_identity,
    sandc_identity,
    shuffle_sign,
    subsets,
)
from .tiling import (
    CoverageReport,
    GenericDirection,
    GenericityError,
    TileId,
    TilingEngine,
    VerifyReport,
    certify_direction,
    choose_generic_direction,
    verify_constancy,
)
from .facets import (
    CrossingReport,
    DoubleCoverReport,
    FacetCollection,
    FacetId,
    UpDownPartition,
    crossing_check,
    double_cover_check,
    facet_collection,
    facet_signs,
    h_vector,
    tilde_facet,
    up_down_partition,
)
from .slices import (
    SliceClass,
    SliceLayout,
    slice_layout,
    slice_precondition,
    unimodular_reduce,
)
from .render import render_svg

__all__ = [name for name in dir() if not name.startswith("_")]
