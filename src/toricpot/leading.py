"""Energy levels, adapted flag bases, and leading term equations.

At an interior point ``u`` the facet functions take finitely many values
``S_1 < S_2 < ...``; the facets at each level span a growing flag of
subspaces.  An adapted integer basis of that flag turns the lowest-order
part of the potential at each level into a Laurent polynomial in the
variables of levels up to ``l``, whose partial derivatives in the
level-``l`` variables form the leading term equations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import lattice
from .errors import BasisConstructionFailed, NotInLattice, NotInterior
from .polytope import MomentPolytope


@dataclass
class Level:
    S: Fraction
    members: list  # of (facet_index, normal vector)


@dataclass
class LevelStructure:
    P: MomentPolytope
    u: tuple
    levels: list          # of Level, ascending S
    d: list               # rank increment per level
    K: Optional[int]      # 1-based index of first full-span level, or None

    def level(self, l: int) -> Level:
        return self.levels[l - 1]

    @property
    def k_prefix(self) -> tuple:
        """Facet indices of levels 1..K, all that the leading systems read
        (every level when K is None)."""
        return tuple(tuple(i for i, _ in lev.members)
                     for lev in self.levels[:self.K])


def level_partition(ell) -> tuple:
    """Facet indices grouped by equal value of ``ell``, ascending value."""
    by_value: dict = {}
    for i, e in enumerate(ell):
        by_value.setdefault(e, []).append(i)
    return tuple(tuple(by_value[S]) for S in sorted(by_value))


def level_structure(P: MomentPolytope, u) -> LevelStructure:
    u = tuple(Fraction(x) for x in u)
    ell = P.ell_values(u)
    if any(v <= 0 for v in ell):
        raise NotInterior(f"{u} is not an interior point")
    return _level_structure(P, u, ell, level_partition(ell))


def _level_structure(P: MomentPolytope, u, ell, parts, D=1) -> LevelStructure:
    """Levels of the facet values ``ell`` (ints scaled by ``D``, or
    ``Fraction``s) grouped by their ``level_partition`` ``parts``."""
    levels = [Level(Fraction(ell[part[0]], D),
                    [(i, P.facets[i].v) for i in part]) for part in parts]
    d, span_rows = [], []
    for lev in levels:  # past K the span is all of Q^n, so d is 0 there
        span_rows.extend(v for _, v in lev.members)
        d.append(lattice.rank(span_rows) - sum(d))
        if sum(d) == P.n:
            break
    K = len(d) if sum(d) == P.n else None
    d += [0] * (len(levels) - len(d))
    return LevelStructure(P, u, levels, d, K)


@dataclass
class FlagBasis:
    structure: LevelStructure
    labels: list   # of (l, s) in construction order
    rows: list     # basis vectors e*_{l,s}, same order

    def monomial_coordinates(self, v) -> list:
        """Exponents of ``y^v`` in the flag variables.

        Raises :class:`NotInLattice` when ``v`` is outside the integer
        span of the basis rows.
        """
        coords = lattice.integer_coordinates(list(v), self.rows)
        if coords is None:
            raise NotInLattice(f"{tuple(v)} not in the basis lattice")
        return coords


def flag_basis(ls: LevelStructure) -> FlagBasis:
    """Adapted integer basis: level by level, saturate and extend.

    The first ``d(1)+...+d(l)`` rows form a basis of the saturation of
    the span of levels up to ``l``; canonicalized by greedy L1 reduction
    against earlier rows and a positive-leading-entry sign convention.
    """
    labels = []
    rows = []
    seen = []
    for l, lev in enumerate(ls.levels[:ls.K], start=1):
        seen.extend(v for _, v in lev.members)
        if ls.d[l - 1] == 0:
            continue
        target = lattice.saturation_basis(seen)
        new_rows = lattice.extend_basis(rows, target)
        if new_rows is None or len(new_rows) != ls.d[l - 1]:
            raise BasisConstructionFailed(
                f"cannot extend the flag basis at level {l}")
        for s, vec in enumerate(new_rows, start=1):
            vec = lattice.reduce_against(vec, rows)
            labels.append((l, s))
            rows.append(vec)
    if len(rows) == ls.P.n:
        index = abs(int(lattice.det(rows)))
        if index != 1:
            # full flags over a smooth polytope always close up to Z^n
            raise BasisConstructionFailed(
                f"basis determinant {index}, expected a unimodular basis")
    return FlagBasis(ls, labels, rows)


@dataclass
class Equation:
    """Laurent polynomial equation in the flag variables, set to zero."""
    label: tuple                 # (l, s) of the differentiated variable
    terms: dict                  # exponent tuple -> scalar coefficient


@dataclass
class LeadingSystem:
    basis: FlagBasis
    cutoff: int
    equations: list              # of Equation
    generalized: bool

    @property
    def variables(self):
        return [lab for lab in self.basis.labels if lab[0] <= self.cutoff]


def leading_equations(P: MomentPolytope, u, cutoff: Optional[int] = None,
                      coefficients: Optional[dict] = None) -> LeadingSystem:
    """Assemble the (generalized) leading term equations up to a level.

    ``coefficients`` maps facet indices to nonzero scalars (unit parts of
    divisor weights); omitted facets contribute coefficient 1.  The
    equation of variable (l, s) is the plain partial derivative of the
    level-``l`` sum in that variable.
    """
    ls = level_structure(P, u)
    return _assemble_system(ls, flag_basis(ls), cutoff, coefficients)


def _assemble_system(ls: LevelStructure, fb: FlagBasis, cutoff=None,
                     coefficients=None) -> LeadingSystem:
    """The leading system of levels up to ``cutoff`` from a built flag."""
    max_level = ls.K if ls.K is not None else len(ls.levels)
    l0 = max_level if cutoff is None else min(cutoff, max_level)
    nvars = len(fb.labels)
    var_index = {lab: i for i, lab in enumerate(fb.labels)}
    equations = []
    for l in range(1, l0 + 1):
        lev = ls.level(l)
        # level sum in flag coordinates
        level_terms: dict = {}
        for i, v in lev.members:
            c = (coefficients or {}).get(i, 1)
            e = tuple(fb.monomial_coordinates(v))
            if any(e[j] != 0 and fb.labels[j][0] > l for j in range(nvars)):
                raise BasisConstructionFailed(
                    f"level-{l} monomial uses variables above its level")
            level_terms[e] = level_terms.get(e, 0) + c
        for s in range(1, ls.d[l - 1] + 1):
            j = var_index[(l, s)]
            deriv: dict = {}
            for e, c in level_terms.items():
                if e[j] == 0:
                    continue
                de = list(e)
                de[j] -= 1
                key = tuple(de)
                deriv[key] = deriv.get(key, 0) + c * e[j]
            deriv = {e: c for e, c in deriv.items() if c != 0}
            equations.append(Equation((l, s), deriv))
    return LeadingSystem(fb, l0, equations, generalized=coefficients is not None)


def evaluate_equation(eq: Equation, values: Sequence) -> complex:
    """Plug complex values (one per flag variable) into an equation."""
    total = 0j
    for e, c in eq.terms.items():
        term = complex(c)
        for v, p in zip(values, e):
            term *= complex(v) ** p
        total += term
    return total
