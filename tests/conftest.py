import os
import random
from fractions import Fraction
from pathlib import Path

import pytest

from bcpair import (EpsPoly, XLaurent, ZSeries, chi_series_triple, curve_series,
                    lambda_fn, make_l1, make_l2, make_limit_op, mu_fn)
from bcpair.exact import sum_of_products

SEED = 20120715

#: the root of this checkout
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def l1():
    return make_l1()


@pytest.fixture(scope="session")
def l2():
    return make_l2()


@pytest.fixture(scope="session")
def limit_op():
    return make_limit_op()


@pytest.fixture(scope="session")
def chis24():
    return chi_series_triple(24)


@pytest.fixture(scope="session")
def lam24():
    return curve_series(lambda_fn(), 24)


@pytest.fixture(scope="session")
def mu24():
    return curve_series(mu_fn(), 24)


def child_env() -> dict[str, str]:
    """The environment for a child interpreter, with this checkout's ``src``
    first on ``PYTHONPATH``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def rng(salt: int = 0) -> random.Random:
    return random.Random(SEED + salt)


def random_fraction(r: random.Random, span: int = 9) -> Fraction:
    return Fraction(r.randint(-span, span), r.randint(1, 4))


def random_epspoly(r: random.Random, max_exp: int = 4) -> EpsPoly:
    return EpsPoly({r.randint(0, max_exp): random_fraction(r)
                    for _ in range(r.randint(0, 2))})


def random_xlaurent(r: random.Random, xspan: int = 3, terms: int = 3) -> XLaurent:
    return XLaurent({r.randint(-xspan, xspan): random_epspoly(r)
                     for _ in range(r.randint(0, terms))})


def reference_product(a: ZSeries, b: ZSeries) -> ZSeries:
    """``a * b`` on the window rule of ``ZSeries.__mul__``, one
    ``sum_of_products`` per z-coefficient."""
    lo, upper = a.lowest + b.lowest, min(a.upper + b.lowest, b.upper + a.lowest)
    n = max(0, min(upper, a.end + b.end - 1) - lo)
    return ZSeries(lo, [sum_of_products([(1, u, b.coeffs[k - i]) for i, u in enumerate(a.coeffs)
                                         if 0 <= k - i < len(b.coeffs)])
                        for k in range(n)], upper)


def assert_same_series(s: ZSeries, t: ZSeries) -> None:
    """``s`` and ``t`` are equal structurally: the same window, stored terms
    and numerators over the same denominators."""
    assert (s.lowest, s.upper, s.end) == (t.lowest, t.upper, t.end)
    assert [(c.num, c.den) for c in s.coeffs] == [(c.num, c.den) for c in t.coeffs]
