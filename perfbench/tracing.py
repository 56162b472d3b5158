"""Spans and counters at the package's layer boundaries, and layer micro-benchmarks.

The tracer wraps public functions and methods of the imported package from
the outside: a *span* boundary records (name, start, end, parent) for every
call, a *count* boundary only increments a counter (used where calls run into
the millions).  Every alias of a wrapped function in the package's modules is
replaced, so calls through ``bcpair.x`` and ``bcpair.module.x`` are both
seen.  A boundary the package no longer has is skipped and its metrics are
left out of the report.

A span's self time is its duration minus the durations of its direct child
spans.  Spans read ``speed.own_clock``, which leaves out the speed probe.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
from collections import Counter

from speed import Scaled, own_clock

# (module, attribute path, metric name)
SPANS = (
    ("diffop", "DiffOp.compose", "diffop.compose"),
    ("pipeline", "reduction_frame", "pipeline.reduction_frame"),
    ("pipeline", "verify_rank3", "pipeline.verify_rank3"),
    ("pipeline", "derive_L1_coeffs", "pipeline.derive_L1_coeffs"),
    ("pipeline", "solve_commuting", "pipeline.solve_commuting"),
    ("pipeline", "find_bc_relation", "pipeline.find_bc_relation"),
    ("linsolve", "gauss_solve", "linsolve.gauss_solve"),
    ("linsolve", "lagrange_coefficients", "linsolve.lagrange"),
    ("linsolve", "FractionEchelon.insert", "linsolve.fraction_echelon_insert"),
    ("linsolve", "FractionEchelon.reduce_vector", "linsolve.fraction_echelon_reduce"),
    ("linsolve", "FractionEchelon.kernel_basis", "linsolve.fraction_echelon_kernel"),
    ("kncheck", "find_branch", "kncheck.find_branch"),
    ("kncheck", "gamma_equation_residual", "kncheck.gamma_equation_residual"),
    ("kncheck", "gamma_eval", "kncheck.gamma_eval"),
)
COUNTS = (
    ("exact", "EpsPoly.__mul__", "exact.epspoly_mul.calls"),
    ("exact", "XLaurent.__mul__", "exact.xlaurent_mul.calls"),
    ("exact", "ZSeries.__mul__", "exact.zseries_mul.calls"),
    ("linsolve", "ModEchelon.insert", "linsolve.mod_echelon_insert.calls"),
    ("linsolve", "rational_reconstruct", "linsolve.rational_reconstruct.calls"),
)
# generator functions whose yielded items are counted
YIELDS = (
    ("linsolve", "prime_stream", "linsolve.primes_drawn"),
)

FRACTION_ECHELON = ("linsolve.fraction_echelon_insert", "linsolve.fraction_echelon_reduce",
                    "linsolve.fraction_echelon_kernel")


def _resolve(package, module: str, path: str):
    """(owner, attribute, original) or None when the boundary is absent."""
    owner = getattr(package, module, None)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
    if owner is None or not hasattr(owner, attr):
        return None
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Installs the boundary wrappers; ``restore`` takes them out again."""

    def __init__(self, package):
        self.package = package
        self.spans: list = []        # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.present: set[str] = set()
        self._stack: list[int] = []
        self._undo: list = []

    # -- installing -----------------------------------------------------------

    def install(self) -> "Tracer":
        for module, path, name in SPANS:
            self._patch(module, path, name, self._span_wrapper)
        for module, path, name in COUNTS:
            self._patch(module, path, name, self._count_wrapper)
        for module, path, name in YIELDS:
            self._patch(module, path, name, self._yield_wrapper)
        return self

    def _patch(self, module, path, name, make_wrapper):
        found = _resolve(self.package, module, path)
        if found is None:
            return
        owner, attr, original = found
        self.present.add(name)
        wrapper = make_wrapper(original, name)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        prefix = self.package.__name__
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != prefix and not mod_name.startswith(prefix + "."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _span_wrapper(self, fn, name):
        spans, stack = self.spans, self._stack
        counts = self.counts

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = own_clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx] = (name, t0, own_clock(), parent)
                stack.pop()
            counts[name + ".returned"] += 1
            if name == "linsolve.gauss_solve" and out[0] is not None:
                counts[name + ".useful"] += 1
            return out
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _yield_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item
        return wrapper

    @contextlib.contextmanager
    def command(self, name: str):
        """A root span around one benchmark command."""
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        t0 = own_clock()
        try:
            yield
        finally:
            self.spans[idx] = (f"command.{name}", t0, own_clock(), -1)
            self._stack.pop()

    # -- reading --------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of every boundary that is present."""
        n = len(self.spans)
        dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * n
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for i, s in enumerate(self.spans):
            calls[s[0]] += 1
            self_s[s[0]] += dur[i] - child[i]
        outer = self._outer_time

        out: dict[str, tuple[float, str]] = {}
        has = self.present.__contains__
        for _, _, name in COUNTS + YIELDS:
            if has(name):
                out[name] = (self.counts[name], "count")
        if has("diffop.compose"):
            out["diffop.compose.calls"] = (calls["diffop.compose"], "count")
            out["diffop.compose_s"] = (outer({"diffop.compose"}), "s")
        for name in ("pipeline.verify_rank3", "pipeline.reduction_frame"):
            if has(name):
                out[name + "_s"] = (outer({name}), "s")
        for name in ("pipeline.derive_L1_coeffs", "pipeline.solve_commuting",
                     "pipeline.find_bc_relation"):
            if has(name):
                out[name + ".self_s"] = (self_s[name], "s")
        if has("linsolve.gauss_solve"):
            n_gauss = calls["linsolve.gauss_solve"]
            out["linsolve.gauss_solve.calls"] = (n_gauss, "count")
            useful = self.counts["linsolve.gauss_solve.useful"]
            out["linsolve.gauss_solve.useful_ratio"] = (useful / n_gauss if n_gauss else 0.0,
                                                        "ratio")
        if has("linsolve.lagrange"):
            out["linsolve.lagrange_s"] = (outer({"linsolve.lagrange"}), "s")
        if has("linsolve.fraction_echelon_insert"):
            out["linsolve.fraction_echelon_insert.calls"] = (
                calls["linsolve.fraction_echelon_insert"], "count")
            out["linsolve.fraction_echelon_s"] = (
                outer(set(FRACTION_ECHELON)), "s")
        if has("kncheck.gamma_eval"):
            # one call per point evaluation: leave out the gamma-equation residual's calls
            out["kncheck.gamma_eval.calls"] = (
                sum(1 for s in self.spans if s[0] == "kncheck.gamma_eval" and not (
                    s[3] >= 0 and self.spans[s[3]][0] == "kncheck.gamma_equation_residual")),
                "count")
        if has("kncheck.find_branch"):
            out["kncheck.find_branch_s"] = (outer({"kncheck.find_branch"}), "s")
            # accepted branch assignments per point evaluation made while searching
            tried = sum(1 for s in self.spans if s[0] == "kncheck.gamma_eval"
                        and s[3] >= 0 and self.spans[s[3]][0] == "kncheck.find_branch")
            found = self.counts["kncheck.find_branch.returned"]
            out["kncheck.branch_useful_ratio"] = (found / tried if tried else 0.0, "ratio")
        return out

    def _outer_time(self, names: set) -> float:
        """Time inside spans named in ``names``, nested ones counted once."""
        spans = self.spans
        acc = 0.0
        for s in spans:
            if s[0] not in names:
                continue
            p = s[3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                acc += s[2] - s[1]
        return acc


# ---------------------------------------------------------------------------
# layer micro-benchmarks on real operands
# ---------------------------------------------------------------------------

def _per_call(fn, prepare=None, min_total: float = 0.2, min_reps: int = 7) -> float:
    """Median scaled seconds of one ``fn(prepare())`` call; ``prepare`` is not timed."""
    samples = []
    spent = 0.0
    with Scaled() as clock:
        while len(samples) < min_reps or spent < min_total:
            arg = prepare() if prepare else None
            t0 = own_clock()
            fn(arg)
            dt = own_clock() - t0
            samples.append(dt)
            spent += dt
            if len(samples) >= 10000:
                break
    return statistics.median(samples) * clock.speed


def micro_benchmarks(lib) -> dict:
    """Time single layer operations on operands taken from L1, L2 and the chi series."""
    b = lib.bcpair
    l1, l2 = lib.l1, lib.l2
    c0, c1, c2 = lib.chis
    out: dict[str, tuple[float, str]] = {}

    def widest_epspoly(op):
        return max((e for c in op.coeffs for e in c.c.values()), key=lambda e: len(e.c))

    e1, e2 = widest_epspoly(l1), widest_epspoly(l2)
    out["exact.epspoly_mul_us"] = (1e6 * _per_call(lambda _: e1 * e2), "us")
    x1, x2 = l1.coefficient(0), l2.coefficient(0)
    out["exact.xlaurent_mul_us"] = (1e6 * _per_call(lambda _: x1 * x2), "us")
    out["exact.zseries_mul_ms"] = (1e3 * _per_call(lambda _: c0 * c1), "ms")
    out["diffop.compose_l1_l2_s"] = (_per_call(lambda _: l1.compose(l2), min_reps=5), "s")
    out["pipeline.reduction_frame12_s"] = (
        _per_call(lambda _: b.reduction_frame(c0, c1, c2, 12), min_reps=3), "s")

    linsolve = getattr(b, "linsolve", None)
    if linsolve is not None and hasattr(linsolve, "FractionEchelon"):
        def vector(op):
            return {(k, xe, ee): v for k, c in enumerate(op.coeffs)
                    for xe, e in c.c.items() for ee, v in e.c.items()}
        v2, v12 = vector(l2), vector(l1 + l2)

        def echelon_with_l2(_=None):
            ech = linsolve.FractionEchelon()
            ech.insert(v2)
            return ech
        out["linsolve.echelon_insert_us"] = (
            1e6 * _per_call(lambda ech: ech.insert(v12), prepare=echelon_with_l2), "us")

    kncheck = b.kncheck
    if hasattr(kncheck, "Jet"):
        from mpmath import mp
        with mp.workdps(60 + kncheck.GUARD_DIGITS):
            g = kncheck.Jet(kncheck.gamma_eval(1, -1, 4, 60))
            out["kncheck.jet_mul60_us"] = (1e6 * _per_call(lambda _: g * g), "us")
    return out
