"""Bulk-balancedness decisions, energy bounds, and polytope scans.

A fiber is reported bulk-balanced when its full leading system is
solvable over nonzero complex numbers; otherwise the largest solvable
prefix of levels determines a threshold order, which bounds the
displacement energy from below after the 2*pi unit conversion.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .errors import OutOfScope
from .leading import (_assemble_system, _check_coefficients,
                      _first_coloop_level, _level_structure, flag_basis,
                      level_partition, level_structure)
from .lifting import _lift_bulk
from .novikov import INF, as_exponent
from .polytope import MomentPolytope
from .solver import solve

BULK_BALANCED = "BulkBalanced"
PARTIAL_UP_TO = "PartialUpTo"
NO_SOLUTION_FOUND = "NoSolutionFound"
NO_FULL_FLAG = "NoFullFlag"


@dataclass
class FiberReport:
    u: tuple
    status: str
    partial_level: Optional[int] = None     # l0 for PartialUpTo
    certified: Optional[bool] = None        # for NoSolutionFound
    threshold_bound: object = INF           # rational, in area/2pi units
    intersection_bound: int = 0             # 2^n
    witnesses: list = field(default_factory=list)
    lift: Optional[dict] = None             # bulk/point data when verified

    @property
    def balanced(self) -> bool:
        return self.status == BULK_BALANCED

    def to_dict(self) -> dict:
        out = {
            "u": [str(x) for x in self.u],
            "status": self.status,
            "threshold_bound": (
                "inf" if self.threshold_bound is INF
                else str(self.threshold_bound)),
            "intersection_bound": self.intersection_bound,
        }
        if self.partial_level is not None:
            out["partial_level"] = self.partial_level
        if self.certified is not None:
            out["certified"] = self.certified
        if self.witnesses:
            out["witnesses"] = [w.to_dict() for w in self.witnesses]
        if self.lift is not None:
            out["lift"] = self.lift
        return out


def classify_fiber(P: MomentPolytope, u, coefficients=None,
                   lift_order=None, tol: float = 1e-9) -> FiberReport:
    """Decide bulk-balancedness of the fiber over ``u``.

    When the full leading system has a solution the fiber is
    ``BulkBalanced`` and, with ``lift_order`` given, the solution is
    lifted to divisor weights certifying criticality to that order.
    Otherwise the largest solvable level prefix ``l0`` is located and
    the first obstructed level's order becomes the threshold bound.
    A zero coefficient, or a key that names no facet, raises
    ``ValueError``.
    """
    _check_coefficients(P, coefficients)
    u = tuple(Fraction(x) for x in u)
    return _classify(P, u, level_structure(P, u), coefficients, lift_order,
                     tol)


def _classify(P, u, ls, coefficients, lift_order, tol) -> FiberReport:
    """``classify_fiber`` on the level structure ``ls`` of ``u``.

    A coloop at a level ``l* <= K`` (``_first_coloop_level``) proves every
    prefix system through ``l*`` empty: none of them is solved, and the
    flag basis is built only if a lower prefix is.
    """
    bound = 2 ** P.n
    empty_from = _first_coloop_level(ls)
    if ls.K is None:
        report = FiberReport(u, NO_FULL_FLAG, intersection_bound=bound)
        _fill_partial(report, ls, None, empty_from or len(ls.levels),
                      coefficients, tol)
        report.status = NO_FULL_FLAG
        return report
    if empty_from is not None:
        report = FiberReport(u, NO_SOLUTION_FOUND, certified=True,
                             intersection_bound=bound)
        _fill_partial(report, ls, None, empty_from, coefficients, tol)
        return report

    fb = flag_basis(ls)
    result = solve(_assemble_system(ls, fb, coefficients=coefficients),
                   tol=tol)
    if result.solutions:
        report = FiberReport(u, BULK_BALANCED, threshold_bound=INF,
                             intersection_bound=bound,
                             witnesses=result.solutions,
                             certified=result.certified)
        if lift_order is not None and coefficients is None:
            witness = result.solutions[0]
            bulk, y, cert = _lift_bulk(P, u, ls, fb, witness, lift_order,
                                       tol=tol)
            report.lift = {
                "order": str(cert.order),
                "residual_valuation": (
                    "inf" if cert.residual_valuation is INF
                    else str(cert.residual_valuation)),
                "bulk": {
                    str(i): entry.plus.to_records()
                    for i, entry in bulk.items()},
                "y": [[c.real, c.imag] for c in y],
            }
        return report

    report = FiberReport(u, NO_SOLUTION_FOUND, certified=result.certified,
                         intersection_bound=bound)
    _fill_partial(report, ls, fb, ls.K, coefficients, tol)
    return report


def _fill_partial(report: FiberReport, ls, fb, top_level, coefficients, tol):
    """Largest solvable prefix of levels below ``top_level`` and the
    resulting threshold; the flag basis ``fb`` is built if it is None and
    a prefix is solved."""
    l0 = 0
    witnesses = []
    for l in range(top_level - 1, 0, -1):
        if fb is None:
            fb = flag_basis(ls)
        partial = solve(_assemble_system(ls, fb, l, coefficients), tol=tol)
        if partial.solutions:
            l0 = l
            witnesses = partial.solutions
            break
    report.partial_level = l0
    if witnesses:
        report.status = PARTIAL_UP_TO
        report.witnesses = witnesses
    report.threshold_bound = ls.level(l0 + 1).S  # l0 < top_level


def scan(P: MomentPolytope, step, row: Optional[dict] = None,
         coefficients=None, tol: float = 1e-9) -> list:
    """Classify every interior grid point with the given rational step.

    ``row`` pins coordinates to fixed values, e.g. ``{2: Fraction(3,10)}``
    scans only the points whose second coordinate is 3/10.  The step and
    the pinned values are exact: ``Fraction``, ``int`` or a string such
    as ``"1/10"``; a float raises ``TypeError``, since its binary value
    (0.1 is 3602879701896397/2^55) would put the grid off the rational
    points meant.

    The leading systems at ``u`` depend only on levels 1..K of the
    ordered level partition of the facets (``level_partition``), where K
    is the first level whose normals span Q^n.  So there is one
    classification per K-prefix: later fibers with the same prefix copy
    its report and take their own threshold S_{l0+1}(u), l0 < K.  A
    K-prefix with a coloop at some level (a facet whose deletion drops
    the rank of the normals up to that level) is proven empty before any
    flag basis is built; only the levels below it go to the solver.
    Coefficients are checked once, as in ``classify_fiber``.

    The grid is walked in ints: with ``D`` the lcm of the denominators of
    the step, the pinned values and the offsets lambda_i, the interior
    test, the partition and each classified level structure read the
    ints ``ell_i(u) * D``.  An unbounded polytope raises ``OutOfScope``.
    """
    _check_coefficients(P, coefficients)
    step = as_exponent(step)
    if step is INF or step <= 0:
        raise ValueError("grid step must be positive and finite")
    fixed = {int(k) - 1: as_exponent(v) for k, v in (row or {}).items()}
    for axis, value in fixed.items():
        if not 0 <= axis < P.n:
            raise ValueError("row constraint names a missing coordinate")
        if value is INF:
            raise ValueError("row value must be finite")
    ray = P._recession_ray()
    if ray is not None:
        raise OutOfScope("cannot scan an unbounded polytope: recession "
                         f"direction ({', '.join(map(str, ray))})")
    D = math.lcm(step.denominator, *(v.denominator for v in fixed.values()),
                 *(f.lam.denominator for f in P.facets))
    verts = P.vertices()
    axes = []  # per coordinate, its grid values u_i paired with u_i * D
    for i in range(P.n):
        if i in fixed:
            vals = [fixed[i]]
        else:
            lo = min(v.point[i] for v in verts)
            hi = max(v.point[i] for v in verts)
            vals = [k * step for k in range(math.floor(lo / step) + 1,
                                            math.ceil(hi / step))]
        axes.append([(x, x.numerator * (D // x.denominator)) for x in vals])
    facets = [(f.v, f.lam.numerator * (D // f.lam.denominator))
              for f in P.facets]

    reports = []
    prefixes = {}  # ordered level partition -> its K-prefix
    kinds = {}  # K-prefix -> report of its first fiber
    for coords in itertools.product(*axes):
        point, scaled = zip(*coords)
        ell = [sum(a * x for a, x in zip(v, scaled)) - lam
               for v, lam in facets]
        if any(e <= 0 for e in ell):
            continue
        key = level_partition(ell)
        prefix = prefixes.get(key)
        if prefix is None:
            ls = _level_structure(P, point, ell, key, D)
            prefix = prefixes[key] = ls.k_prefix
            if prefix not in kinds:
                kinds[prefix] = _classify(P, point, ls, coefficients, None,
                                          tol)
                reports.append(kinds[prefix])
                continue
        kind = kinds[prefix]
        l0 = kind.partial_level  # key[l0] holds the facets of S_{l0+1}
        reports.append(replace(
            kind, u=point, witnesses=list(kind.witnesses),
            threshold_bound=(INF if kind.balanced
                             else Fraction(ell[key[l0][0]], D))))
    return reports


def balanced_locus(reports) -> list:
    """The fibers a scan found to be bulk-balanced, in scan order."""
    return [r.u for r in reports if r.balanced]


def report_bounds(fr: FiberReport) -> dict:
    """Quantitative consequences of a classification, in both unit styles.

    Orders of the Novikov parameter measure symplectic area divided by
    2*pi; the physical displacement-energy bound carries the 2*pi back.
    """
    threshold = fr.threshold_bound
    if threshold is INF:
        area = physical = "inf"
        physical_value = math.inf
    else:
        area = str(threshold)
        physical = f"2*pi*{threshold}"
        physical_value = 2 * math.pi * float(threshold)
    bound = {"area_over_2pi": area, "physical": physical,
             "physical_value": physical_value}
    return {"status": fr.status, "intersection_bound": fr.intersection_bound,
            "threshold": bound, "displacement_energy_lower_bound": dict(bound)}
