"""Moment polytopes from facet data, their vertices, and valuations.

A polytope is stored by its facet inequalities ``<v_i, u> - lambda_i >= 0``
with primitive integer normals ``v_i`` and rational offsets ``lambda_i``.
Vertex enumeration is brute force over n-subsets of facets, which is
plenty for the intended sizes and keeps every pivot exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import lattice
from .errors import BadKahlerParams, NotInLambda0P
from .novikov import NovikovSeries


@dataclass(frozen=True)
class Facet:
    v: tuple
    lam: Fraction

    def ell(self, u) -> Fraction:
        return sum(a * b for a, b in zip(self.v, u)) - self.lam


@dataclass(frozen=True)
class Vertex:
    point: tuple
    active: tuple  # facet indices with ell = 0


@dataclass
class ValidationReport:
    valid: bool
    failures: list
    vertices: list


@dataclass(frozen=True)
class Monomial:
    """Laurent monomial ``a * y^f`` with a Novikov series coefficient."""
    coeff: NovikovSeries
    expvec: tuple


@dataclass(frozen=True)
class ZExpression:
    """Rewrite of a monomial in the facet variables of one vertex."""
    coeff: NovikovSeries
    vertex: Vertex
    powers: dict  # facet index -> nonnegative integer exponent


class MomentPolytope:
    def __init__(self, n: int, facets: Sequence, name: str = "",
                 fano: Optional[bool] = None):
        self.n = n
        self.facets = []
        for v, lam in facets:
            v = tuple(int(x) for x in v)
            if len(v) != n:
                raise ValueError("normal vector has wrong dimension")
            self.facets.append(Facet(v, Fraction(lam)))
        self.name = name
        self.fano = fano
        self._vertices = None
        self._ray = None  # [ray or None] once searched

    @property
    def m(self) -> int:
        return len(self.facets)

    # -- basic evaluation --------------------------------------------------

    def ell_values(self, u):
        """Facet function values at ``u`` (all > 0 iff ``u`` interior)."""
        u = [Fraction(x) for x in u]
        if len(u) != self.n:
            raise ValueError("point has wrong dimension")
        return [f.ell(u) for f in self.facets]

    def is_interior(self, u) -> bool:
        return all(v > 0 for v in self.ell_values(u))

    # -- vertices ----------------------------------------------------------

    def vertices(self):
        """All vertices, each with its full set of active facets."""
        if self._vertices is None:
            self._vertices = self._enumerate_vertices()
        return self._vertices

    def _enumerate_vertices(self):
        seen = {}
        for subset in itertools.combinations(range(self.m), self.n):
            rows = [self.facets[i].v for i in subset]
            rhs = [self.facets[i].lam for i in subset]
            point = lattice.solve(rows, rhs)
            if point is None:
                continue
            if any(val < 0 for val in self.ell_values(point)):
                continue
            key = tuple(point)
            if key not in seen:
                active = tuple(i for i, val in enumerate(self.ell_values(point))
                               if val == 0)
                seen[key] = Vertex(key, active)
        return sorted(seen.values(), key=lambda vx: vx.point)

    # -- validation --------------------------------------------------------

    def validate(self) -> ValidationReport:
        failures = []
        if lattice.rank([f.v for f in self.facets]) < self.n:
            failures.append("unbounded: facet normals do not span the space")
            return ValidationReport(False, failures, [])
        ray = self._recession_ray()
        if ray is not None:
            failures.append(f"unbounded: recession direction {ray}")
            return ValidationReport(False, failures, [])
        verts = self.vertices()
        if not verts:
            failures.append("empty polytope: no feasible vertex")
            return ValidationReport(False, failures, verts)
        for vx in verts:
            if len(vx.active) != self.n:
                failures.append(
                    f"vertex {vx.point} is not simple: "
                    f"{len(vx.active)} active facets")
                continue
            d = lattice.det([self.facets[i].v for i in vx.active])
            if abs(d) != 1:
                failures.append(
                    f"vertex {vx.point} not unimodular: |det| = {abs(d)}")
        for i in range(self.m):
            if not self._facet_is_genuine(i, verts):
                failures.append(f"facet {i} ({self.facets[i].v}, "
                                f"{self.facets[i].lam}) is redundant")
        interior = self._interior_point(verts)
        if interior is None:
            failures.append("no interior point: polytope is lower dimensional")
        return ValidationReport(not failures, failures, verts)

    def _recession_ray(self):
        """A nonzero direction staying inside all halfspaces, if one exists."""
        if self._ray is None:
            self._ray = [self._find_recession_ray()]
        return self._ray[0]

    def _find_recession_ray(self):
        normals = [f.v for f in self.facets]
        if lattice.rank(normals) < self.n:
            # D = U N V has a zero last column, so N V e_n = 0; the zero
            # row keeps n columns when there are no facets
            _, _, v = lattice.smith_normal_form(normals + [(0,) * self.n])
            return tuple(row[-1] for row in v)
        for subset in itertools.combinations(range(self.m), self.n - 1):
            rows = [normals[i] for i in subset]
            kernel = lattice.kernel_vector(rows, self.n)
            if kernel is None:
                continue
            for d in (kernel, [-x for x in kernel]):
                if all(sum(a * b for a, b in zip(v, d)) >= 0 for v in normals):
                    return tuple(d)
        return None

    def _facet_is_genuine(self, i, verts):
        active_verts = [vx.point for vx in verts if i in vx.active]
        if len(active_verts) < self.n:
            return False
        centroid = [sum(col) / len(active_verts) for col in zip(*active_verts)]
        vals = self.ell_values(centroid)
        return vals[i] == 0 and all(
            vals[j] > 0 for j in range(self.m)
            if j != i and self.facets[j] != self.facets[i])

    def _interior_point(self, verts):
        points = [vx.point for vx in verts]
        centroid = [sum(col) / len(points) for col in zip(*points)]
        return centroid if self.is_interior(centroid) else None

    # -- polytope-parameterized valuations ---------------------------------

    def monomial_min_valuation(self, mono: Monomial):
        """Minimum over the closure of ``v_T(a) + <f, u>`` and a witness vertex.

        The infimum over the interior is attained at a vertex; ties are
        broken by lexicographically smallest vertex.
        """
        verts = self.vertices()
        best = None
        for vx in verts:
            val = sum(a * b for a, b in zip(mono.expvec, vx.point))
            if best is None or val < best[0]:
                best = (val, vx)
        value = mono.coeff.valuation() + best[0]
        return value, best[1]

    def monomial_to_z(self, mono: Monomial) -> ZExpression:
        """Rewrite ``a y^f`` over the facet variables of a minimizing vertex.

        The facet variable of facet ``j`` is ``z_j = T^{-lambda_j} y^{v_j}``;
        at the chosen vertex the exponent vector decomposes with
        nonnegative integer coefficients.
        """
        value, vx = self.monomial_min_valuation(mono)
        if value < 0:
            raise NotInLambda0P(
                f"monomial valuation {value} is negative on the polytope")
        rows = [self.facets[j].v for j in vx.active]
        coeffs = lattice.solve([list(col) for col in zip(*rows)],
                               list(mono.expvec))
        assert coeffs is not None and all(c.denominator == 1 for c in coeffs)
        powers = {}
        for j, c in zip(vx.active, coeffs):
            c = int(c)
            assert c >= 0, "vertex decomposition must be nonnegative"
            if c:
                powers[j] = c
        shift = sum(a * b for a, b in zip(mono.expvec, vx.point))
        coeff = mono.coeff * NovikovSeries.monomial(
            1, shift, mode=mono.coeff.mode, tol=mono.coeff.tol)
        return ZExpression(coeff, vx, powers)

    def z_expression_to_monomial(self, zx: ZExpression) -> Monomial:
        """Expand a z-expression back into ``a y^f`` (round-trip check)."""
        expvec = [0] * self.n
        lam_total = Fraction(0)
        for j, p in zx.powers.items():
            for k in range(self.n):
                expvec[k] += p * self.facets[j].v[k]
            lam_total += p * self.facets[j].lam
        # each facet variable carries a factor T^{-lambda_j}
        coeff = zx.coeff * NovikovSeries.monomial(1, -lam_total,
                                                  mode=zx.coeff.mode)
        return Monomial(coeff, tuple(expvec))

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        d = {
            "n": self.n,
            "facets": [{"v": list(f.v), "lambda": str(f.lam)}
                       for f in self.facets],
            "name": self.name,
        }
        if self.fano is not None:
            d["fano"] = self.fano
        return d

    @classmethod
    def from_dict(cls, d):
        return cls(d["n"],
                   [(f["v"], Fraction(f["lambda"])) for f in d["facets"]],
                   name=d.get("name", ""),
                   fano=d.get("fano"))

    def __repr__(self):
        return f"MomentPolytope({self.name or 'unnamed'}, n={self.n}, m={self.m})"


# -- named example polytopes ----------------------------------------------

EXAMPLE_NAMES = ("cp1", "cpn", "two_point_blowup", "k_point_blowup",
                 "one_point_blowup_monotone")


def _cpn_facets(n):
    """The facets ``u_i >= 0`` and ``u_1 + ... + u_n <= 1`` of CP^n."""
    facets = [(tuple(int(i == j) for j in range(n)), 0) for i in range(n)]
    return facets + [((-1,) * n, -1)]


def _cut(a, b, eps):
    """The facet that cuts off the corner where facets ``a`` and ``b``
    meet, at size ``eps``: normal ``v_a + v_b``, offset
    ``lambda_a + lambda_b + eps``."""
    (va, la), (vb, lb) = a, b
    return tuple(x + y for x, y in zip(va, vb)), la + lb + eps


def build_example(name: str, *params) -> MomentPolytope:
    """Construct one of the named example polytopes.

    Supported names: ``cp1``, ``cpn`` (dimension parameter),
    ``two_point_blowup`` (alpha, beta), ``k_point_blowup``
    (alpha, eps3, eps4, ...), ``one_point_blowup_monotone``.  The
    blow-ups are corner cuts of CP^2.
    """
    params = [Fraction(p) for p in params]
    if name in ("cp1", "cpn"):
        n = 1 if name == "cp1" else int(params[0]) if params else 2
        return MomentPolytope(n, _cpn_facets(n), name=f"cp{n}", fano=True)
    e1, e2, e3 = _cpn_facets(2)  # u1 >= 0, u2 >= 0, u1 + u2 <= 1
    if name == "two_point_blowup":
        alpha, beta = params
        if not (0 <= alpha and 0 <= beta and alpha + beta <= 1):
            raise BadKahlerParams(f"(alpha, beta)=({alpha},{beta}) outside the cone")
        # u2 <= 1 - alpha and u1 + u2 >= beta
        facets = [e1, e2, _cut(e1, e3, alpha), _cut(e1, e2, beta), e3]
        return MomentPolytope(2, facets, name="two_point_blowup", fano=True)
    if name == "k_point_blowup":
        alpha = params[0]
        if not alpha > Fraction(1, 3):
            raise BadKahlerParams("requires alpha > 1/3")
        facets = [(f.v, f.lam) for f in build_example(
            "two_point_blowup", alpha, (1 - alpha) / 2).facets]
        # successive cuts at the rightmost bottom vertex, between u2 >= 0
        # and the last facet
        for eps in params[1:]:
            if not 0 < eps:
                raise BadKahlerParams("blow-up size must be positive")
            facets.append(_cut(e2, facets[-1], eps))
        k = len(facets) - 3
        # one cut gives the hexagon fan of the Fano three-point blow-up;
        # a second leaves a (-2)-curve
        return MomentPolytope(2, facets, name=f"{k}_point_blowup",
                              fano=k <= 3)
    if name == "one_point_blowup_monotone":
        facets = [e1, e2, e3, _cut(e1, e3, Fraction(1, 3))]
        return MomentPolytope(2, facets, name="one_point_blowup_monotone",
                              fano=True)
    raise BadKahlerParams(f"unknown example {name!r}")
