"""Per-layer tracing of toricpot from outside the package.

``Tracer.install`` replaces the public callables of each layer (the
package modules) with timing wrappers: module functions wherever a
``from .x import y`` re-bound them, and methods on their classes,
including the ``NovikovSeries`` operators.  Each call records a span
(name, start, end, parent span, op id) in flat in-memory arrays; the
spans are written out and reduced to per-layer metrics when the run
ends.  A layer's self time is its spans' time minus their child spans.
"""

from __future__ import annotations

import sys
import time
from array import array
from fractions import Fraction

import numpy as np

from toricpot import (classify, lattice, leading, lifting, novikov, polytope,
                      potential, solver)

LAYERS = ("novikov", "polytope", "lattice", "potential", "leading", "solver",
          "lifting", "classify")

_M = polytope.MomentPolytope
_S = novikov.NovikovSeries
_F = potential.PotentialFunction

# (owner, attribute, span name); methods are patched on their class.
# Callables without metrics of their own are wrapped too, so that their
# self time counts for their own layer and not for the caller's.
TARGETS = [
    (classify, "scan", "classify.scan"),
    (classify, "classify_fiber", "classify.classify_fiber"),
    (classify, "balanced_locus", "classify.balanced_locus"),
    (leading, "level_structure", "leading.level_structure"),
    (leading, "flag_basis", "leading.flag_basis"),
    (leading, "leading_equations", "leading.leading_equations"),
    (lattice, "rank", "lattice.rank"),
    (lattice, "det", "lattice.det"),
    (lattice, "solve", "lattice.solve"),
    (lattice, "invert", "lattice.invert"),
    (lattice, "saturation_basis", "lattice.saturation_basis"),
    (lattice, "extend_basis", "lattice.extend_basis"),
    (lattice, "integer_coordinates", "lattice.integer_coordinates"),
    (lattice, "reduce_against", "lattice.reduce_against"),
    (lattice, "smith_normal_form", "lattice.smith_normal_form"),
    (_M, "ell_values", "polytope.ell_values"),
    (_M, "is_interior", "polytope.is_interior"),
    (_M, "vertices", "polytope.vertices"),
    (solver, "solve", "solver.solve"),
    (solver, "solve_partial", "solver.solve_partial"),
    (solver, "solve_equations", "solver.solve_equations"),
    (solver, "_newton_multistart", "solver.stage_c"),
    (_S, "__mul__", "novikov.mul"),
    (_S, "__add__", "novikov.add"),
    (_S, "__sub__", "novikov.sub"),
    (_S, "__pow__", "novikov.pow"),
    (_S, "exp", "novikov.exp"),
    (_S, "inverse", "novikov.inverse"),
    (potential, "fano_bulk_potential", "potential.fano_bulk_potential"),
    (potential, "leading_potential", "potential.leading_potential"),
    (potential, "euler_check", "potential.euler_check"),
    (_F, "gradient_residual", "potential.gradient_residual"),
    (_F, "hessian", "potential.hessian"),
    (lifting, "lift_bulk", "lifting.lift_bulk"),
    (lifting, "lift_point", "lifting.lift_point"),
    (lifting, "solution_to_torus", "lifting.solution_to_torus"),
    (lifting, "case_analysis_two_point", "lifting.case_analysis_two_point"),
]

# per-layer metrics: name -> (unit, better)
METRICS = {
    "classify.scan.self_ms": ("ms", "lower"),
    "classify.classify_fiber.calls": ("count", "lower"),
    "classify.classify_fiber.self_ms": ("ms", "lower"),
    "classify.fibers_per_partition": ("ratio", "higher"),
    "leading.level_structure.calls": ("count", "lower"),
    "leading.level_structure.self_ms": ("ms", "lower"),
    "leading.level_structure.calls_per_fiber": ("ratio", "lower"),
    "leading.flag_basis.calls": ("count", "lower"),
    "leading.flag_basis.self_ms": ("ms", "lower"),
    "leading.leading_equations.calls": ("count", "lower"),
    "leading.leading_equations.self_ms": ("ms", "lower"),
    "lattice.rank.calls": ("count", "lower"),
    "lattice.rank.self_ms": ("ms", "lower"),
    "lattice.saturation_basis.self_ms": ("ms", "lower"),
    "lattice.extend_basis.self_ms": ("ms", "lower"),
    "lattice.integer_coordinates.self_ms": ("ms", "lower"),
    "lattice.invert.self_ms": ("ms", "lower"),
    "polytope.ell_values.calls": ("count", "lower"),
    "polytope.ell_values.self_ms": ("ms", "lower"),
    "polytope.is_interior.calls": ("count", "lower"),
    "solver.solve.calls": ("count", "lower"),
    "solver.solve.self_ms": ("ms", "lower"),
    "solver.solve_partial.calls": ("count", "lower"),
    "solver.solve_partial.self_ms": ("ms", "lower"),
    "solver.stage_a.count": ("count", "higher"),
    "solver.stage_b.count": ("count", "higher"),
    "solver.stage_c.count": ("count", "lower"),
    "solver.stage_c.self_ms": ("ms", "lower"),
    "solver.certified_frac": ("ratio", "higher"),
    "solver.found_frac": ("ratio", "higher"),
    "novikov.mul.calls": ("count", "lower"),
    "novikov.mul.self_ms": ("ms", "lower"),
    "novikov.mul.mean_terms": ("terms", "lower"),
    "novikov.add.calls": ("count", "lower"),
    "novikov.add.self_ms": ("ms", "lower"),
    "novikov.exp.calls": ("count", "lower"),
    "novikov.exp.self_ms": ("ms", "lower"),
    "novikov.exp.mean_terms": ("terms", "lower"),
    "novikov.inverse.calls": ("count", "lower"),
    "novikov.inverse.self_ms": ("ms", "lower"),
    "potential.fano_bulk_potential.calls": ("count", "lower"),
    "potential.fano_bulk_potential.self_ms": ("ms", "lower"),
    "potential.gradient_residual.self_ms": ("ms", "lower"),
    "potential.hessian.self_ms": ("ms", "lower"),
    "potential.euler_check.self_ms": ("ms", "lower"),
    "potential.leading_potential.self_ms": ("ms", "lower"),
    "lifting.lift_bulk.calls": ("count", "lower"),
    "lifting.lift_bulk.self_ms": ("ms", "lower"),
    "lifting.lift_bulk.steps": ("count", "lower"),
    "lifting.lift_bulk.monoid_grown": ("count", "lower"),
    "lifting.lift_bulk.bulk_terms": ("terms", "lower"),
    "lifting.case_analysis_two_point.self_ms": ("ms", "lower"),
    **{f"{layer}.self_frac": ("ratio", "lower") for layer in LAYERS},
    "trace.ops": ("count", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _terms(x) -> int:
    return len(x.terms) if isinstance(x, _S) else 1


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


class Tracer:
    """Span recorder; counts and notes are kept for the ratios above."""

    def __init__(self):
        self.names: list = []           # span name per TARGETS entry
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list = []
        self.current_op = -1
        self.mul_terms: list = []
        self.exp_terms: list = []
        self.fibers: list = []          # (polytope, u) per classify_fiber
        self.solves: list = []          # SolveResult per solve
        self.lifts: list = []           # (bulk, y, certificate) per lift_bulk
        self._restore: list = []

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, span):
        sid = len(self.names)
        self.names.append(span)
        names, starts, ends, parents, ops = (self.name, self.start, self.end,
                                             self.parent, self.op)
        stack = self.stack
        clock = time.perf_counter_ns
        note = {
            "novikov.mul": lambda a, r: self.mul_terms.append(
                _terms(a[0]) * _terms(a[1])),
            "novikov.exp": lambda a, r: self.exp_terms.append(len(a[0].terms)),
            "classify.classify_fiber": lambda a, r: self.fibers.append(
                (a[0], r.u)),
            "solver.solve": lambda a, r: self.solves.append(r),
            "lifting.lift_bulk": lambda a, r: self.lifts.append(r),
        }.get(span)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(sid)
            starts.append(0)
            ends.append(0)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if note is not None:
                note(args, result)
            return result

        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "toricpot"
                                         or name.startswith("toricpot."))]
        for owner, attr, span in TARGETS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span)
            holders = modules if not isinstance(owner, type) else [owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapper)

    def uninstall(self):
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- reduction ----------------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.int64),
                "end": np.frombuffer(self.end, dtype=np.int64),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "op": np.frombuffer(self.op, dtype=np.int32),
                "names": np.array(self.names)}

    def metrics(self, ops: int, op_seconds: float, speed_ratio: float) -> dict:
        """Per-layer metrics of ``ops`` traced ops taking ``op_seconds``.

        ``speed_ratio`` is untraced over traced op time for the same ops.
        """
        a = self.arrays()
        dur = (a["end"] - a["start"]).astype(np.float64)
        child = a["parent"] >= 0
        self_ns = dur - np.bincount(a["parent"][child], weights=dur[child],
                                    minlength=len(dur))
        k = len(self.names)
        calls = np.bincount(a["name"], minlength=k)
        self_ms = np.bincount(a["name"], weights=self_ns, minlength=k) / 1e6
        by_name = {n: (int(calls[i]), float(self_ms[i]))
                   for i, n in enumerate(self.names)}

        def count(n):
            return by_name.get(n, (0, 0.0))[0]

        def self_time(n):
            return by_name.get(n, (0, 0.0))[1]

        out = {}
        for metric in METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = count(base)
            elif kind == "self_ms":
                out[metric] = self_time(base)
        fibers = len(self.fibers)
        partitions = {_partition(P, u) for P, u in self.fibers}
        out["classify.fibers_per_partition"] = (
            fibers / len(partitions) if partitions else 0.0)
        out["leading.level_structure.calls_per_fiber"] = (
            count("leading.level_structure") / fibers if fibers else 0.0)
        for stage in "abc":
            out[f"solver.stage_{stage}.count"] = sum(
                stage in r.path for r in self.solves)
        solves = len(self.solves)
        out["solver.certified_frac"] = (
            sum(r.certified for r in self.solves) / solves if solves else 0.0)
        out["solver.found_frac"] = (
            sum(bool(r.solutions) for r in self.solves) / solves
            if solves else 0.0)
        out["novikov.mul.mean_terms"] = _mean(self.mul_terms)
        out["novikov.exp.mean_terms"] = _mean(self.exp_terms)
        out["lifting.lift_bulk.steps"] = _mean(
            [len(c.steps) for _, _, c in self.lifts])
        out["lifting.lift_bulk.monoid_grown"] = _mean(
            [len(c.monoid_grown) for _, _, c in self.lifts])
        out["lifting.lift_bulk.bulk_terms"] = _mean(
            [sum(len(e.plus.terms) for _, e in b.items())
             for b, _, _ in self.lifts])
        total_ms = op_seconds * 1e3
        for layer in LAYERS:
            layer_ms = sum(ms for n, (_, ms) in by_name.items()
                           if n.split(".")[0] == layer)
            out[f"{layer}.self_frac"] = (layer_ms / total_ms if total_ms
                                         else 0.0)
        out["trace.ops"] = ops
        out["trace.overhead_frac"] = 1 - speed_ratio
        return out


def _partition(P, u) -> tuple:
    """Ordered level partition of the facets at ``u``."""
    levels: dict = {}
    for i, f in enumerate(P.facets):
        value = sum(Fraction(a) * b for a, b in zip(f.v, u)) - f.lam
        levels.setdefault(value, []).append(i)
    return (id(P),) + tuple(tuple(levels[v]) for v in sorted(levels))
