"""Exact-arithmetic structured matrices: leave-one-out symmetric-value
matrices, power matrices, closed-form determinants, Wronskian and
Jacobian applications, and independent determinant oracles to verify
them all."""

from .bench import BenchRecord, run_bench
from .calculus import (
    jacobian_det_closed,
    jacobian_matrix,
    nodal_basis,
    poly_derivative,
    wronskian_closed,
    wronskian_matrix,
)
from .exactdet import LaplaceSizeError, det_bareiss, det_laplace, laplace_size_limit
from .matio import (
    MatrixFormatError,
    NodesFileError,
    load_nodes_file,
    matrix_from_csv,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    parse_nodes_text,
    serialize_nodes,
)
from .rational import Rational, RationalParseError, parse_rational, render_rational
from .structmat import (
    ExactMatrix,
    build_vandermonde,
    build_vieta,
    shift_nodes,
    vandermonde_det_closed,
    vieta_det_closed,
    vieta_extension_poly,
)
from .sympoly import (
    DensePolynomial,
    NodeSet,
    elem_sym_all,
    leave_one_out_table,
    poly_from_roots,
)
from .verify import (
    IDENTITIES,
    NodeGenerationError,
    UnknownIdentityError,
    VerifyConfig,
    VerifyReport,
    identity_names,
    run_identity,
    run_suite,
    trial_rng,
)

__version__ = "0.1.0"
