"""Exact construction and verification of a rank-3 commuting operator pair
on a genus-2 spectral curve."""

from .exact import (BivarPoly, EpsPoly, ExactError, XLaurent, ZSeries, ep,
                    series_sqrt, xl, DEFAULT_SERIES_ORDER)
from .diffop import (DiffOp, XLAURENT_RING, eval_poly_at_pair, right_reduce,
                     NonCommutingPair, ReductionError)
from .curve import (CurveDef, CurveElem, DEFAULT_CURVE, bc_function_identity,
                    chi, curve_series, lambda_fn, mu_fn)
from .opdata import bc_poly, make_l1, make_l2, make_limit_op, zeta1, zeta2
from .pipeline import (AffineSolutionSet, ChiTriple, PipelineError, Rank3Report,
                       TruncationTooShort, chi_series_triple, derive_L1_coeffs,
                       find_bc_relation, reduce_with_frame, reduction_frame,
                       solve_commuting, verify_rank3)
from .kncheck import (BranchAssignment, KNData, KNReport, gamma_eval,
                      gamma_equation_residual, kn_check, kn_residuals,
                      pole_data_from_chi)

__version__ = "0.1.0"

_CLI_NAMES = ("main", "parse_op", "print_op")


def __getattr__(name):
    # the command-line module (argparse, reports) loads on first use only
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
