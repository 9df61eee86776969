"""fftlasso: sparse spectral recovery from noisy, incomplete signals.

A matrix-free LASSO solver over an orthogonal real-packed Fourier basis:
the l1-regularized least-squares problem is solved by a primal-dual
interior-point method whose condensed Newton systems are solved with
preconditioned conjugate gradients, all operators applied through FFTs.
A solve allocates its vectors once; ``fftlasso.ipm.ROLES`` says which of
them holds what in each phase of a Newton step.
"""

from .errors import (
    InteriorViolationError,
    IterationLimitError,
    MalformedSpectrumError,
    NumericalBreakdownError,
    StalledError,
    UnsupportedShapeError,
)
from .fourier import GridShape, analyze, pack, synthesize, unpack
from .ipm import (
    IpmConfig,
    IpmState,
    SolveReport,
    default_penalty,
    lasso_objective,
    solve,
)
from .masking import Mask, embed, gram, observe, observe_adjoint
from .pcg import PcgResult, pcg_solve
from .synthetic import SyntheticSpec, generate_synthetic

__version__ = "0.1.0"

__all__ = [
    "GridShape",
    "Mask",
    "IpmConfig",
    "IpmState",
    "SolveReport",
    "PcgResult",
    "SyntheticSpec",
    "pack",
    "unpack",
    "synthesize",
    "analyze",
    "observe",
    "observe_adjoint",
    "gram",
    "embed",
    "pcg_solve",
    "solve",
    "default_penalty",
    "lasso_objective",
    "generate_synthetic",
    "UnsupportedShapeError",
    "MalformedSpectrumError",
    "InteriorViolationError",
    "NumericalBreakdownError",
    "StalledError",
    "IterationLimitError",
]
