"""Matrix-group compactness, shrinking sets, and noise mixing experiments."""

from .matrices import (
    BlockKind,
    EigenCluster,
    NoncompactCertificate,
    RealJordanBlock,
    RealJordanDecomposition,
    classify_noncompact_blocks,
    cyclic_closure_compact,
    eigen_spectrum,
    find_noncompact_witness,
    haar_average_form,
    jordan_block_power_apply,
    real_jordan_form,
    spd_sqrt_inverse,
    weyl_conjugator,
)
from .noise import (
    NoiseRealization,
    NoiseSpec,
    apply_transform,
    realize,
)
from .regions import (
    AtomTable,
    Piece,
    Region,
    atomize,
    box_region,
    intersection_volume,
    transform,
    unit_box,
    volume,
)
from .shrinking import (
    ShrinkingFamily,
    absorption_lag,
    build_family,
    contains,
    contains_many,
    null_boundary_check,
)

__version__ = "0.1.0"
