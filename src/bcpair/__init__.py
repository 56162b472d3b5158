"""Exact construction and verification of a rank-3 commuting operator pair
on a genus-2 spectral curve."""

import sys

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

__version__ = "0.1.0"
_PACKAGE = sys.modules[__name__]  # this generation, which alone loads its lazy modules

# Names served by a module that loads on first use: the command line
# (argparse, reports), the solver layer (``linsolve``, which only the
# constructive steps ``solve_commuting`` and ``find_bc_relation`` and
# ``AffineSolutionSet.contains`` call) and the numeric check (mpmath).  The
# exact layers above need none of them.  A module's name stands for the
# module itself.
_LAZY = {
    **dict.fromkeys(("main", "parse_op", "print_op"), "cli"),
    "linsolve": "linsolve",
    **dict.fromkeys(("kncheck", "BranchAssignment", "KNData", "KNReport", "gamma_eval",
                     "gamma_equation_residual", "kn_check", "kn_residuals",
                     "pole_data_from_chi"), "kncheck"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # once the package is imported afresh, a load would bind the new generation's module
    if sys.modules.get(__name__) is not _PACKAGE:
        raise ImportError(f"cannot load {__name__}.{module} for {name!r}: the package "
                          f"{__name__!r} was imported afresh after this one")
    from importlib import import_module
    loaded = import_module(f".{module}", __name__)
    # bind every name of the module here, so this hook runs once per module and
    # a later fresh import of the package does not change what this one holds
    for lazy, owner in _LAZY.items():
        if owner == module:
            globals()[lazy] = loaded if lazy == module else getattr(loaded, lazy)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_LAZY})
