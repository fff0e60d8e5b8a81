"""critlocus: exact verification workbench for matrix-superpotential dg structures.

The package builds, over exact rationals or a prime field, the symbolic
objects attached to the superpotential W = tr(X [Y, Z]) on triples of
n x n matrices: the extended Koszul cdga, the self-dual four-term
cotangent model of the quotient by GL_n, the universal family with its
homotopy actions, the endomorphism complex computing Ext groups, the
bimodule resolution of the polynomial ring in three variables, and the
signed-permutation comparison map between the tangent and endomorphism
models.  Classical-point utilities (cyclicity, plane partitions, an
independent Koszul oracle) and toric surface chart covers round out the
verification surface.  See README for the command-line interface.
"""

from .scalars import DEFAULT_PRIME, GF, QQ
from .linalg import DenseMatrix, kernel_basis
from .superpoly import Derivation, GeneratorTable, SuperPoly, poly_to_text
from .freenc import NCElement
from .complexes import ChainMap, FreeComplex, SymMatrix
from .potential import (
    MatrixCdga,
    build_cotangent_complex,
    build_potential,
    build_two_form,
    verify_superpotential_identities,
)
from .family import (
    build_comparison_map,
    build_ginzburg_resolution,
    build_universal_family,
    check_ext_point,
    endomorphism_model,
    ext_dims_at,
)
from .points import (
    MatrixPoint,
    PlanePartition,
    enumerate_partitions,
    is_cyclic,
    koszul_ext_oracle,
    point_from_partition,
)
from .toric import Fan2D, Surface, SurfaceSpec, find_chart, verify_cover_property

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PRIME",
    "GF",
    "QQ",
    "DenseMatrix",
    "kernel_basis",
    "Derivation",
    "GeneratorTable",
    "SuperPoly",
    "poly_to_text",
    "NCElement",
    "ChainMap",
    "FreeComplex",
    "SymMatrix",
    "MatrixCdga",
    "build_cotangent_complex",
    "build_potential",
    "build_two_form",
    "verify_superpotential_identities",
    "build_comparison_map",
    "build_ginzburg_resolution",
    "build_universal_family",
    "check_ext_point",
    "endomorphism_model",
    "ext_dims_at",
    "MatrixPoint",
    "PlanePartition",
    "enumerate_partitions",
    "is_cyclic",
    "koszul_ext_oracle",
    "point_from_partition",
    "Fan2D",
    "Surface",
    "SurfaceSpec",
    "find_chart",
    "verify_cover_property",
]
