"""Exact q-expansion arithmetic, Wronskians, dimension bookkeeping for
Fuchsian groups, and Weierstrass-point tests at the infinite cusp."""

from .qseries import QSeries
from .ingest import BasisFile, load_basis, parse_basis, parse_basis_file, serialize
from .weierstrass import (
    SPAN_NOT_GUARANTEED,
    CuspBasis,
    ModularFormRecord,
    WeierstrassReport,
    required_precision,
    subspace_dimension,
    weierstrass_test,
    wronskian_criterion,
)
from .errors import (
    DependentInput,
    DivisionByZeroSeries,
    DomainError,
    EmptyInput,
    HyperellipticUnsupported,
    NotInSpace,
    ParseError,
    PrecisionError,
    QweierError,
    RankDeficit,
    ShapeError,
    ValidationError,
    ValuationError,
)

__version__ = "0.1.0"
