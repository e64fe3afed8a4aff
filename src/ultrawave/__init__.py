"""Wavelet analysis and spectral equation solving on measured ball trees."""

from .errors import (
    AnchorError,
    DegenerateBallError,
    DivergenceError,
    DomainError,
    FileFormatError,
    IllConditionedError,
    NonFiniteError,
    ParameterError,
    SpaceValidationError,
    UltrawaveError,
    UnknownBallError,
    UnsolvableError,
    UnsupportedTailError,
)
from .trees import BallTree, build_padic_tree
from .wavelets import (
    TestFunction,
    Wavelet,
    WaveletExpansion,
    analyze,
    evaluate,
    normalized_constant,
    synthesize,
    tree_wavelets,
    wavelet_basis,
)
from .operators import (
    HomogeneousSymbol,
    TableSymbol,
    apply_dense,
    eigenvalue,
    operator_matrix,
    spectrum,
)
from .products import (
    TOP,
    Edge,
    MultiOperator,
    MultiWavelet,
    ProductSpace,
    decreasing_edges,
    multiwavelet_basis,
)
from .distributions import (
    GeneralizedFunction,
    LizorkinSeries,
    apply_operator,
    eval_extended,
    eval_on_char_nd,
    eval_on_product,
    lizorkin_pair,
)
from .solver import (
    CauchyProblem,
    Characteristic,
    ResidualReport,
    Solution,
    characteristics,
    check_solvability,
    solve,
)

__version__ = "0.1.0"
