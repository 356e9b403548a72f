"""Potential functions of torus fibers and their Laurent calculus.

A potential is a Laurent polynomial in ``y_1..y_n`` with Novikov-series
coefficients.  This module assembles the leading-order potential from a
polytope and an interior point, applies divisor-weight deformations in
the closed product form available for Fano examples, adds gapped
higher-order tails, and provides logarithmic derivatives, evaluation at
unit points, gradients, Hessians, residue pairing, and the Euler
vector-field identity check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (BadGappedTerm, NonUnitEvaluation, NotInterior,
                     OutOfScope)
from .novikov import DEFAULT_TOL, EXACT, FLOAT, INF, NovikovSeries, as_exponent
from .polytope import MomentPolytope

EULER_RTOL = 1e-8   # float-mode Euler residuals up to this are pruning noise


class PotentialFunction:
    """Laurent polynomial in y-variables over the Novikov ring."""

    def __init__(self, n: int, terms: Sequence):
        self.n = n
        merged: dict = {}
        mode = None
        tols = []
        for coeff, expvec in terms:
            expvec = tuple(int(x) for x in expvec)
            if len(expvec) != n:
                raise ValueError("exponent vector has wrong dimension")
            if expvec in merged:
                merged[expvec] = merged[expvec] + coeff
            else:
                merged[expvec] = coeff
            mode = coeff.mode
            tols.append(coeff.tol)
        self.terms = tuple(sorted(
            ((c, e) for e, c in merged.items() if not c.is_zero),
            key=lambda t: t[1]))
        self.mode = mode if mode is not None else EXACT
        # no DEFAULT_TOL floor, so that a smaller tolerance a caller chose
        # for the coefficients also holds for the sums
        self.tol = max(tols, default=DEFAULT_TOL)

    def __eq__(self, other):
        return (isinstance(other, PotentialFunction)
                and self.n == other.n and self.terms == other.terms)

    def coefficient(self, expvec) -> NovikovSeries:
        expvec = tuple(int(x) for x in expvec)
        for c, e in self.terms:
            if e == expvec:
                return c
        return NovikovSeries.zero(mode=self.mode, tol=self.tol)

    def _term_values(self, y):
        """``(c_t y^(e_t), e_t)`` for each term ``c_t y^(e_t)`` at the unit
        point ``y``; each distinct power ``y_i^p`` is computed once per
        call, so ``y_i^-1`` costs one series inverse however many terms
        share it."""
        y = [self._as_unit(c) for c in y]
        if len(y) != self.n:
            raise ValueError("point has wrong dimension")
        powers: dict = {}
        values = []
        for coeff, expvec in self.terms:
            value = coeff
            for i, fi in enumerate(expvec):
                if fi:
                    if (i, fi) not in powers:
                        powers[i, fi] = y[i] ** fi
                    value = value * powers[i, fi]
            values.append((value, expvec))
        return values

    def _weighted_sum(self, values, weight):
        """``sum_t weight(e_t) V_t`` over term values ``(V_t, e_t)``; a
        weight of 1 adds the value unscaled."""
        total = NovikovSeries.zero(mode=self.mode, tol=self.tol)
        for value, expvec in values:
            w = weight(expvec)
            if w:
                total = total + (value if w == 1 else value.scale(w))
        return total

    def evaluate(self, y) -> NovikovSeries:
        """Evaluate at a point with unit Novikov-series coordinates."""
        return self._weighted_sum(self._term_values(y), lambda e: 1)

    def _as_unit(self, c):
        if not isinstance(c, NovikovSeries):
            c = NovikovSeries.const(c, mode=self.mode, tol=self.tol)
        if not c.is_unit():
            raise NonUnitEvaluation(
                f"coordinate {c!r} is not a unit of the valuation ring")
        return c

    def gradient_residual(self, y):
        """All logarithmic derivatives ``y_k dF/dy_k = sum_t e_(t,k) V_t``
        at ``y`` and their least valuation."""
        values = self._term_values(y)
        residuals = [self._weighted_sum(values, lambda e: e[k])
                     for k in range(self.n)]
        min_val = min((r.valuation() for r in residuals), default=INF)
        return residuals, min_val

    def hessian(self, y) -> "HessianData":
        """Second logarithmic derivatives ``sum_t e_(t,i) e_(t,j) V_t``,
        their determinant and the residue pairing."""
        values = self._term_values(y)
        matrix = [[self._weighted_sum(values, lambda e: e[i] * e[j])
                   for j in range(self.n)] for i in range(self.n)]
        d = _series_det(matrix, self.mode, self.tol)
        degenerate = d.is_zero
        pairing = None if degenerate else d.inverse()
        return HessianData(matrix, d, pairing, degenerate)

    def truncate_coefficients(self, order) -> "PotentialFunction":
        order = as_exponent(order)
        return PotentialFunction(
            self.n, [(c.truncate(order), e) for c, e in self.terms])

    def to_float(self) -> "PotentialFunction":
        return PotentialFunction(
            self.n, [(c.to_float(), e) for c, e in self.terms])


@dataclass
class HessianData:
    matrix: list
    det: NovikovSeries
    residue_self_pairing: Optional[NovikovSeries]
    degenerate: bool


def _series_det(matrix, mode, tol):
    """Determinant of a small matrix of Novikov series (cofactor expansion)."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = NovikovSeries.zero(mode=mode, tol=tol)
    for j in range(n):
        if matrix[0][j].is_zero:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
        cof = matrix[0][j] * _series_det(minor, mode, tol)
        total = total + (cof if j % 2 == 0 else -cof)
    return total


# -- divisor-weight deformations ------------------------------------------

@dataclass(frozen=True)
class BulkEntry:
    """One facet's deformation, split into a unit times a small part.

    ``unit`` is the exponential of the order-zero coefficient, supplied
    directly as a scalar; ``plus`` is the positive-valuation remainder.
    """
    plus: NovikovSeries
    unit: object = 1


class BulkDeformation:
    """Per-facet divisor weights for the degree-two deformation."""

    def __init__(self, entries: Optional[dict] = None, mode: str = EXACT,
                 tol: float = DEFAULT_TOL):
        self.entries: dict = {}
        self.mode = mode
        self.tol = tol
        for i, entry in (entries or {}).items():
            if isinstance(entry, BulkEntry):
                self.entries[int(i)] = entry
            else:
                self.entries[int(i)] = BulkEntry(plus=entry)
        for entry in self.entries.values():
            if not entry.plus.in_lambda_plus() and not entry.plus.is_zero:
                raise ValueError(
                    "small part of a facet weight must have positive valuation")

    @classmethod
    def zero(cls, mode=EXACT, tol=DEFAULT_TOL):
        return cls({}, mode=mode, tol=tol)

    def entry(self, i: int) -> BulkEntry:
        return self.entries.get(
            i, BulkEntry(NovikovSeries.zero(mode=self.mode, tol=self.tol)))

    def exp_factor(self, i: int, trunc=INF) -> NovikovSeries:
        return _entry_exp(self.entry(i), trunc)

    def items(self):
        return self.entries.items()


def _entry_exp(entry: BulkEntry, trunc, inverse=False) -> NovikovSeries:
    """``unit * exp(plus)`` of a facet weight, or with ``inverse`` its
    inverse ``unit^-1 * exp(-plus)``; an exact ``plus`` is truncated at
    ``trunc`` first."""
    plus, unit = entry.plus, entry.unit
    if inverse:
        plus = -plus
        unit = unit if unit == 1 else 1 / unit
    if trunc is not INF and plus.trunc is INF and not plus.is_zero:
        plus = plus.truncate(trunc)
    factor = plus.exp()
    if unit != 1:
        factor = factor.scale(unit)
    return factor


def _facet_terms(P: MomentPolytope, u, mode, trunc, tol):
    """The facet terms ``(T^(ell_i(u)), v_i)``, in facet order."""
    u = [Fraction(x) for x in u]
    ell = P.ell_values(u)
    if any(v <= 0 for v in ell):
        raise NotInterior(f"{u} is not an interior point")
    return [(NovikovSeries.monomial(1, e, mode=mode, trunc=trunc, tol=tol),
             f.v) for e, f in zip(ell, P.facets)]


def leading_potential(P: MomentPolytope, u, mode=EXACT, trunc=INF,
                      tol=DEFAULT_TOL) -> PotentialFunction:
    """Lowest-order potential: one term ``T^{ell_i(u)} y^{v_i}`` per facet."""
    return PotentialFunction(P.n, _facet_terms(P, u, mode, trunc, tol))


def fano_bulk_potential(P: MomentPolytope, u, bulk: BulkDeformation,
                        trunc=INF, tol=DEFAULT_TOL) -> PotentialFunction:
    """Deformed potential in the closed product form.

    Valid for the Fano examples: each facet term of the leading potential
    is multiplied by the exponential of that facet's divisor weight.
    """
    return PotentialFunction(P.n, _fano_bulk_terms(P, u, bulk, trunc, tol)[0])


def _fano_bulk_terms(P: MomentPolytope, u, bulk: BulkDeformation, trunc,
                     tol):
    """The facet terms ``(T^(ell_i(u)) exp(b_i), v_i)`` of
    ``fano_bulk_potential`` and the factors exp(b_i), one per facet."""
    if P.fano is False:
        raise OutOfScope(
            f"{P.name or 'polytope'} is not marked Fano; the closed product "
            "form does not apply — use with_gapped_tail instead")
    terms = _facet_terms(P, u, bulk.mode, trunc, tol)
    factors = [bulk.exp_factor(i, trunc=trunc) for i in range(P.m)]
    return [(c * w, v) for (c, v), w in zip(terms, factors)], factors


def with_gapped_tail(base: PotentialFunction, P: MomentPolytope, u,
                     tail) -> PotentialFunction:
    """Add higher-order tail terms indexed by facet-exponent multisets.

    Each tail entry ``(c, e, rho)`` contributes
    ``c T^{sum_i e_i ell_i(u) + rho} y^{sum_i e_i v_i}`` with all ``e_i``
    nonnegative integers, not all zero, and ``rho > 0``.
    """
    u = [Fraction(x) for x in u]
    ell = P.ell_values(u)
    terms = list(base.terms)
    for c, e, rho in tail:
        e = [int(x) for x in e]
        rho = Fraction(rho)
        if len(e) != P.m:
            raise BadGappedTerm("facet exponent vector has wrong length")
        if any(x < 0 for x in e):
            raise BadGappedTerm("facet exponents must be nonnegative")
        if sum(e) == 0:
            raise BadGappedTerm("at least one facet exponent must be positive")
        if rho <= 0:
            raise BadGappedTerm("energy gap must be positive")
        expvec = tuple(sum(ei * f.v[k] for ei, f in zip(e, P.facets))
                       for k in range(P.n))
        order = sum(ei * li for ei, li in zip(e, ell)) + rho
        terms.append((NovikovSeries.monomial(1, order, mode=base.mode,
                                             tol=base.tol).scale(c), expvec))
    return PotentialFunction(base.n, terms)


def euler_check(P: MomentPolytope, bulk: BulkDeformation, u, N):
    """Check the Euler vector-field identity for degree-two weights.

    The weight variable of facet ``i`` is its exponential factor ``w_i``;
    the Euler field applies each weight times the derivative in that
    weight, which regenerates exactly the facet term ``F_i``, so each
    ``w_i dF/dw_i - F_i`` must vanish.  Both sides are computed mod
    ``T^(N+1)`` and compared mod ``T^N``; in float mode coefficients up
    to ``EULER_RTOL`` are pruning noise.  Returns (equal, residual).
    """
    N = as_exponent(N)
    # headroom for the mod-T^N comparison
    work_trunc = N if N is INF else N + 1
    terms, weights = _fano_bulk_terms(P, u, bulk, work_trunc, bulk.tol)
    residual = INF
    for i, ((F_i, _), w_i) in enumerate(zip(terms, weights)):
        # derivative in the weight variable: divide the facet term by the
        # weight, inverting through the exponential of the negated entry
        # (the geometric-series inverse amplifies roundoff badly)
        dF_dw = F_i * _entry_exp(bulk.entry(i), work_trunc, inverse=True)
        for e, a in (dF_dw * w_i - F_i).truncate(N).terms:
            if bulk.mode == FLOAT and abs(a) <= EULER_RTOL:
                continue
            residual = min(residual, e)
    return residual is INF, residual
