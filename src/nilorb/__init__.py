"""Exact classification and verification of nilpotent adjoint orbits.

The package enumerates the nilpotent orbits of the classical real and
complex simple Lie algebras, constructs a standard triple and invariant
form for each, machine-verifies the classification data with exact
rational arithmetic, and reports every orbit's homotopy type as a compact
homogeneous space.
"""

from .catalog import (FAMILIES, SIGNED_FAMILIES, AlgebraSpec, OrbitRecord,
                      datum_membership_error, enumerate_orbits, fiber_count)
from .centralizers import (AlgebraConstraint, CentralizerReport,
                           centralizer_dim_nilpotent, centralizer_dim_triple,
                           centralizer_report, expected_orbit_dim,
                           expected_reductive_dim)
from .diagrams import SignedDiagram, enumerate_signed_diagrams, sign_matrix
from .homotopy import (HomotopyType, characters, compact_pair, embed_K,
                       factor_layout, sample_k_element, verify_K_membership)
from .matrices import ExactMatrix
from .partitions import Partition, enumerate_partitions
from .scalars import Scalar
from .triples import Triple, ZeroOrbitError, build_triple, gram_matrix, jordan_type

__version__ = "0.1.0"

__all__ = [
    "AlgebraConstraint",
    "AlgebraSpec",
    "CentralizerReport",
    "ExactMatrix",
    "FAMILIES",
    "HomotopyType",
    "OrbitRecord",
    "Partition",
    "SIGNED_FAMILIES",
    "Scalar",
    "SignedDiagram",
    "Triple",
    "ZeroOrbitError",
    "build_triple",
    "centralizer_dim_nilpotent",
    "centralizer_dim_triple",
    "centralizer_report",
    "characters",
    "compact_pair",
    "datum_membership_error",
    "embed_K",
    "enumerate_orbits",
    "enumerate_partitions",
    "enumerate_signed_diagrams",
    "expected_orbit_dim",
    "expected_reductive_dim",
    "factor_layout",
    "fiber_count",
    "gram_matrix",
    "jordan_type",
    "sample_k_element",
    "sign_matrix",
    "verify_K_membership",
    "__version__",
]
