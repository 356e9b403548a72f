"""Arithmetic in the universal Novikov ring with rational exponents.

A series is a finite sum ``sum_i a_i T^{e_i}`` with strictly increasing
rational exponents ``e_i`` and nonzero coefficients, together with an
exclusive truncation order ``trunc`` (``math.inf`` marks exact data).
Coefficients live in one of two modes:

* ``"exact"``  -- arbitrary precision rationals (:class:`fractions.Fraction`),
* ``"float"``  -- complex floats with a pruning tolerance.

Membership conventions: the series lies in the valuation ring when its
valuation is >= 0, in the maximal ideal when it is > 0, and it is a unit
of the valuation ring when the valuation is exactly 0.  The valuation of
the zero series is ``math.inf``.

Storage.  The exponents and a finite ``trunc`` of a series all lie on
(1/q)Z for one int ``q``, kept as the least such: a series holds ``q``,
the increasing int indices ``x_i = q e_i`` with the coefficients as two
lists, and the int index ``q * trunc`` (``math.inf`` for exact data).
An exact series holds its coefficients as int numerators ``n_i`` over
one positive int denominator ``d`` (``a_i = n_i / d``), with the gcd of
``d`` and all ``n_i`` equal to 1 and ``d = 1`` for the zero series.
Equal series therefore have equal storage.  Sums, products, truncation,
valuation tests, ``exp`` and ``inverse`` work on these ints, over the
lcm of the two ``q`` (and of the two ``d`` in a sum) when two series
meet; a product multiplies numerators and reduces once.  The
``Fraction`` exponents of ``terms``, ``valuation``, ``leading``,
``coefficient`` and ``trunc``, and the ``Fraction`` coefficients of
``terms``, ``coefficient``, ``leading``, ``reduction``, ``to_records``
and ``repr``, are made only where they are read.
"""

from __future__ import annotations

import cmath
import heapq
import math
from bisect import bisect_left
from fractions import Fraction
from typing import Iterable

from .errors import DivisionByZero, ModeMismatch, NeedsTranscendental

EXACT = "exact"
FLOAT = "float"
DEFAULT_TOL = 1e-10

INF = math.inf


def as_exponent(x) -> Fraction:
    """Coerce ``x`` to an exact rational exponent (``math.inf`` passes through)."""
    if x is INF:
        return INF
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float) and x == math.inf:
        return INF
    raise TypeError(f"exponent must be rational, got {x!r}")


def _coerce_coeff(c, mode):
    if mode == EXACT:
        if isinstance(c, Fraction):
            return c
        if isinstance(c, (int, str)):
            return Fraction(c)
        raise ModeMismatch(f"exact mode requires rational coefficients, got {c!r}")
    return complex(c)


class NovikovSeries:
    """Immutable truncated series over the Novikov ring.

    Stored as the least denominator ``_q``, the increasing int exponent
    indices ``_idx`` and their nonzero coefficients ``_coeffs`` (lists),
    the coefficient denominator ``_den`` and the int truncation index
    ``_cap`` (``math.inf`` for exact data): term ``i`` is
    ``(_coeffs[i]/_den) T^(_idx[i]/_q)`` and ``trunc`` is ``_cap/_q``.
    In exact mode ``_coeffs`` are int numerators in lowest terms over
    the positive int ``_den``; in float mode they are complex and
    ``_den`` is 1.  ``terms`` is built from these on first read.
    """

    __slots__ = ("_q", "_idx", "_coeffs", "_den", "_cap", "mode", "tol",
                 "_terms")

    def __init__(self, terms: Iterable = (), trunc=INF, mode: str = EXACT,
                 tol: float = DEFAULT_TOL):
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown mode {mode!r}")
        trunc = as_exponent(trunc)
        merged: dict = {}
        for exp, coeff in terms:
            exp = as_exponent(exp)
            coeff = _coerce_coeff(coeff, mode)
            if exp in merged:
                merged[exp] = merged[exp] + coeff
            else:
                merged[exp] = coeff
        exps = sorted(e for e in merged if e < trunc)
        q = math.lcm(*[e.denominator for e in exps])
        if trunc is INF:
            cap = INF
        else:
            q = math.lcm(q, trunc.denominator)
            cap = trunc.numerator * (q // trunc.denominator)
        coeffs = [merged[e] for e in exps]
        den = 1
        if mode == EXACT:
            den = math.lcm(*[c.denominator for c in coeffs])
            coeffs = [c.numerator * (den // c.denominator) for c in coeffs]
        self._set(q, [e.numerator * (q // e.denominator) for e in exps],
                  coeffs, cap, mode, tol, den)

    def _set(self, q, idx, coeffs, cap, mode, tol, den=1):
        """Store after dropping zero coefficients (exact zeros, and in
        float mode those of modulus below ``tol``), reducing ``q`` to
        the least denominator and, in exact mode, the int numerators
        ``coeffs`` over ``den`` to lowest terms."""
        if mode == EXACT:
            zero = [i for i, c in enumerate(coeffs) if not c]
        else:
            zero = [i for i, c in enumerate(coeffs) if not c or abs(c) < tol]
        if zero:
            zero = set(zero)
            idx = [x for i, x in enumerate(idx) if i not in zero]
            coeffs = [c for i, c in enumerate(coeffs) if i not in zero]
        if q > 1:
            g = math.gcd(q, *idx) if cap is INF else math.gcd(q, cap, *idx)
            if g > 1:
                q //= g
                idx = [x // g for x in idx]
                if cap is not INF:
                    cap //= g
        if den > 1:
            g = math.gcd(den, *coeffs)   # den itself when no term is left
            if g > 1:
                den //= g
                coeffs = [c // g for c in coeffs]
        setter = object.__setattr__
        setter(self, "_q", q)
        setter(self, "_idx", idx)
        setter(self, "_coeffs", coeffs)
        setter(self, "_den", den)
        setter(self, "_cap", cap)
        setter(self, "mode", mode)
        setter(self, "tol", tol)
        setter(self, "_terms", None)

    @classmethod
    def _from_indices(cls, q, idx, coeffs, cap, mode, tol, den=1):
        """The series ``sum_i (coeffs[i]/den) T^(idx[i]/q)`` mod
        ``T^(cap/q)`` from increasing int indices below the int ``cap``
        (or ``math.inf``); exact-mode ``coeffs`` are ints over the
        positive int ``den``.  Zero coefficients are dropped and ``q``
        and ``den`` are reduced as in the constructor."""
        s = object.__new__(cls)
        s._set(q, idx, coeffs, cap, mode, tol, den)
        return s

    def __setattr__(self, *args):
        raise AttributeError("NovikovSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, mode=EXACT, trunc=INF, tol=DEFAULT_TOL):
        return cls.monomial(0, INF, mode=mode, trunc=trunc, tol=tol)

    @classmethod
    def const(cls, c, mode=EXACT, trunc=INF, tol=DEFAULT_TOL):
        return cls.monomial(c, 0, mode=mode, trunc=trunc, tol=tol)

    @classmethod
    def one(cls, mode=EXACT, trunc=INF, tol=DEFAULT_TOL):
        return cls.monomial(1, 0, mode=mode, trunc=trunc, tol=tol)

    @classmethod
    def monomial(cls, coeff, exp, mode=EXACT, trunc=INF, tol=DEFAULT_TOL):
        """``coeff T^exp``, stored directly as at most one index on the
        grid of ``exp`` and ``trunc``."""
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown mode {mode!r}")
        trunc, exp = as_exponent(trunc), as_exponent(exp)
        c, den = _coerce_coeff(coeff, mode), 1
        if mode == EXACT:
            c, den = c.numerator, c.denominator
        q, cap = (1, INF) if trunc is INF else \
            (trunc.denominator, trunc.numerator)
        if exp is INF or cap is not INF and \
                exp.numerator * q >= cap * exp.denominator:   # exp >= trunc
            return cls._from_indices(q, [], [], cap, mode, tol)
        m = math.lcm(q, exp.denominator)
        if cap is not INF:
            cap *= m // q
        return cls._from_indices(m, [exp.numerator * (m // exp.denominator)],
                                 [c], cap, mode, tol, den)

    # -- structure ---------------------------------------------------------

    @property
    def terms(self):
        """``((exponent, coefficient), ...)`` with ``Fraction`` exponents
        (and ``Fraction`` coefficients in exact mode), increasing."""
        terms = self._terms
        if terms is None:
            q = self._q
            coeffs = self._coeffs
            if self.mode == EXACT:
                den = self._den
                coeffs = [Fraction(c, den) for c in coeffs]
            # from a list: a tuple built from an iterator of unknown length
            # is resized, which strands its spare block on a free list
            terms = tuple([(Fraction(x, q), c)
                           for x, c in zip(self._idx, coeffs)])
            object.__setattr__(self, "_terms", terms)
        return terms

    @property
    def trunc(self):
        """Exclusive truncation order; ``math.inf`` for exact data."""
        cap = self._cap
        return INF if cap is INF else Fraction(cap, self._q)

    def valuation(self):
        """Minimal stored exponent; ``math.inf`` for the zero series."""
        return Fraction(self._idx[0], self._q) if self._idx else INF

    @property
    def is_zero(self) -> bool:
        return not self._idx

    def in_lambda0(self) -> bool:
        return not self._idx or self._idx[0] >= 0

    def in_lambda_plus(self) -> bool:
        return not self._idx or self._idx[0] > 0

    def is_unit(self) -> bool:
        """Member of the valuation ring with invertible reduction."""
        return bool(self._idx) and self._idx[0] == 0

    def coefficient(self, exp):
        exp = as_exponent(exp)
        if exp is not INF:
            x = exp * self._q
            if x.denominator == 1:
                idx = self._idx
                k = bisect_left(idx, x.numerator)
                if k < len(idx) and idx[k] == x.numerator:
                    return self._scalar(k)
        return Fraction(0) if self.mode == EXACT else 0j

    def _scalar(self, k):
        """Coefficient ``k`` as a ``Fraction`` (exact) or complex (float)."""
        c = self._coeffs[k]
        return Fraction(c, self._den) if self.mode == EXACT else c

    def leading(self):
        """(exponent, coefficient) of the lowest order term."""
        if not self._idx:
            raise DivisionByZero("zero series has no leading term")
        return Fraction(self._idx[0], self._q), self._scalar(0)

    def reduction(self):
        """Constant term, i.e. reduction modulo the maximal ideal."""
        if self._idx and self._idx[0] == 0:
            return self._scalar(0)
        return Fraction(0) if self.mode == EXACT else 0j

    def _check(self, other):
        if not isinstance(other, NovikovSeries):
            raise TypeError("expected NovikovSeries")
        if self.mode != other.mode:
            raise ModeMismatch(f"cannot mix {self.mode} and {other.mode} series")
        return max(self.tol, other.tol)

    def _without_constant(self):
        """The series minus its constant term, dropped from the storage."""
        if self._idx and self._idx[0] == 0:
            return NovikovSeries._from_indices(
                self._q, self._idx[1:], self._coeffs[1:], self._cap,
                self.mode, self.tol, self._den)
        return self

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            other = NovikovSeries.const(other, mode=self.mode, tol=self.tol)
        tol = self._check(other)
        q, ia, ta, ib, tb = _common_grid(self, other)
        cap = min(ta, tb)
        ca, cb, den = self._coeffs, other._coeffs, self._den
        if den != other._den:   # exact numerators onto the lcm
            den = math.lcm(den, other._den)
            ma, mb = den // self._den, den // other._den
            ca = [c * ma for c in ca]
            cb = [c * mb for c in cb]
        merged = dict(zip(ia, ca))
        for x, c in zip(ib, cb):
            a = merged.get(x)
            merged[x] = c if a is None else a + c
        idx = sorted(x for x in merged if x < cap)
        return NovikovSeries._from_indices(q, idx, [merged[x] for x in idx],
                                           cap, self.mode, tol, den)

    __radd__ = __add__

    def __neg__(self):
        return NovikovSeries._from_indices(
            self._q, self._idx, [-c for c in self._coeffs], self._cap,
            self.mode, self.tol, self._den)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            other = NovikovSeries.const(other, mode=self.mode, tol=self.tol)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        """Multiply by a scalar of the coefficient field."""
        c = _coerce_coeff(c, self.mode)
        den = self._den
        if self.mode == EXACT:
            c, den = c.numerator, den * c.denominator
        return NovikovSeries._from_indices(
            self._q, self._idx, [c * a for a in self._coeffs], self._cap,
            self.mode, self.tol, den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            return self.scale(other)
        tol = self._check(other)
        q, ia, ta, ib, tb = _common_grid(self, other)
        cap = _product_cap(ia, ta, ib, tb)
        out: dict = {}
        get = out.get
        if ib:
            cb_all = other._coeffs
            first = ib[0]
            for xa, ca in zip(ia, self._coeffs):
                if xa + first >= cap:
                    break
                for xb, cb in zip(ib, cb_all):
                    x = xa + xb
                    if x >= cap:
                        break
                    out[x] = get(x, 0) + ca * cb
        idx = sorted(out)
        return NovikovSeries._from_indices(q, idx, [out[x] for x in idx],
                                           cap, self.mode, tol,
                                           self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise TypeError("integer powers only")
        if n < 0:
            return self.inverse() ** (-n)
        result = NovikovSeries.one(mode=self.mode, tol=self.tol)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    def truncate(self, order):
        """Drop exponents >= ``order`` and cap the truncation there."""
        order = as_exponent(order)
        if order is INF:
            return self
        q = math.lcm(self._q, order.denominator)
        m = q // self._q
        cap = order.numerator * (q // order.denominator)
        if self._cap is not INF and cap >= self._cap * m:
            return self
        k = bisect_left(self._idx, -(-cap // m))   # first x with x*m >= cap
        idx = self._idx[:k]
        if m > 1:
            idx = [x * m for x in idx]
        return NovikovSeries._from_indices(q, idx, self._coeffs[:k], cap,
                                           self.mode, self.tol, self._den)

    def inverse(self, trunc=None):
        """Multiplicative inverse as a Laurent-type series.

        Works for any nonzero series: factor out the lowest term
        ``c T^v``, leaving a unit ``1 + u`` with ``u`` in the maximal
        ideal, and invert that unit by the recurrence
        ``e_x = -sum_s u_s e_{x-s}`` over the exponent support (see
        :func:`_support_recurrence`; cost (output terms) x (terms of
        ``u``)).  ``u`` is the product with ``c^-1 T^-v`` less its
        constant term, dropped rather than subtracted, so no roundoff
        of ``c c^-1 - 1`` is left behind.  If ``u`` is nonzero and no
        finite truncation is available (neither on the series nor via
        ``trunc``), a finite order is required.
        """
        if self.is_zero:
            raise DivisionByZero("cannot invert the zero series")
        x, c = self._idx[0], self._coeffs[0]
        v = Fraction(x, self._q)
        if self.mode == EXACT:   # (c/den)^-1 = den/c, the sign on top
            c, den = (self._den, c) if c > 0 else (-self._den, -c)
        else:
            c, den = 1.0 / c, 1
        lead = NovikovSeries._from_indices(self._q, [-x], [c], INF, self.mode,
                                           self.tol, den)
        u = (self * lead)._without_constant()  # element of the maximal ideal
        if trunc is not None:
            result_trunc = as_exponent(trunc)
        elif self.trunc is INF:
            result_trunc = INF
        else:
            result_trunc = self.trunc - 2 * v
        if u.is_zero:
            return lead.truncate(result_trunc)
        if result_trunc is INF:
            raise ValueError("inverse of a non-monomial needs a finite truncation")
        # 1/(1+u), truncated relative to the leading order
        unit = _support_recurrence(u.truncate(result_trunc + v), exp=False)
        return (unit * lead).truncate(result_trunc)

    def exp(self, unit_exp=None):
        """Exponential of an element of the valuation ring.

        The constant part contributes a scalar factor: ``cmath.exp`` in
        float mode, or the caller-supplied ``unit_exp`` in exact mode
        (raising :class:`NeedsTranscendental` when absent).  The rest
        ``p`` has positive valuation, and ``e = exp(p)`` follows from
        ``e' = p'e``, i.e. ``x e_x = sum_s s p_s e_{x-s}`` over the
        exponent support (see :func:`_support_recurrence`; cost (output
        terms) x (terms of ``p``)).
        """
        if not self.in_lambda0():
            raise ValueError("exp requires valuation >= 0")
        a0 = self.reduction()
        plus = self._without_constant()
        if a0 == 0:
            factor = None
        elif unit_exp is not None:
            factor = unit_exp
        elif self.mode == FLOAT:
            factor = cmath.exp(a0)
        else:
            raise NeedsTranscendental(
                "exact-mode exp of a unit needs an explicit scalar value")
        if plus.is_zero:
            result = NovikovSeries.one(mode=self.mode, trunc=self.trunc,
                                       tol=self.tol)
        else:
            if plus._cap is INF:
                raise ValueError("exp of a non-constant series needs a finite truncation")
            result = _support_recurrence(plus, exp=True)
        if factor is not None:
            result = result.scale(factor)
        return result

    # -- conversion and comparison ----------------------------------------

    def to_float(self, tol=None):
        """Copy of the series with complex-float coefficients."""
        if self.mode == FLOAT:
            return self
        # int true division is correctly rounded, as float(Fraction) is
        den = self._den
        return NovikovSeries._from_indices(
            self._q, self._idx, [complex(c / den) for c in self._coeffs],
            self._cap, FLOAT, self.tol if tol is None else tol)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            other = NovikovSeries.const(other, mode=self.mode, tol=self.tol)
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        return (self.mode == other.mode and self._q == other._q
                and self._cap == other._cap and self._den == other._den
                and self._idx == other._idx
                and self._coeffs == other._coeffs)

    def __hash__(self):
        return hash((self.mode, self._q, self._cap, self._den,
                     tuple(self._idx), tuple(self._coeffs)))

    def approx_eq(self, other, tol=1e-9):
        """Termwise comparison up to ``tol`` on the common truncation."""
        trunc = min(self.trunc, other.trunc)
        diff = (self.truncate(trunc).to_float()
                - other.truncate(trunc).to_float())
        return all(abs(c) <= tol for c in diff._coeffs)

    def __repr__(self):
        if not self._idx:
            body = "0"
        else:
            parts = []
            for e, c in self.terms:
                if e == 0:
                    parts.append(f"{c}")
                else:
                    parts.append(f"{c}*T^{e}")
            body = " + ".join(parts)
        if self._cap is not INF:
            body += f" (mod T^{self.trunc})"
        return f"<{body}>"

    # -- serialization -----------------------------------------------------

    def to_records(self):
        """Exponent-sorted list of plain-JSON term records."""
        records = []
        for e, c in self.terms:
            rec = {"exp": str(e)}
            if self.mode == EXACT:
                rec["num"] = str(c)
            else:
                rec["re"] = c.real
                rec["im"] = c.imag
            records.append(rec)
        return records

    @classmethod
    def from_records(cls, records, mode=None, trunc=INF, tol=DEFAULT_TOL):
        terms = []
        for rec in records:
            exp = Fraction(rec["exp"])
            if "num" in rec:
                rec_mode = EXACT
                coeff = Fraction(rec["num"])
            else:
                rec_mode = FLOAT
                coeff = complex(rec.get("re", 0.0), rec.get("im", 0.0))
            if mode is None:
                mode = rec_mode
            elif mode != rec_mode:
                raise ModeMismatch("record mode does not match requested mode")
            terms.append((exp, coeff))
        return cls(terms, trunc=trunc, mode=mode or EXACT, tol=tol)


def _common_grid(a: NovikovSeries, b: NovikovSeries):
    """``(q, idx_a, cap_a, idx_b, cap_b)``: both series on (1/q)Z, ``q``
    the lcm of their denominators."""
    qa, qb = a._q, b._q
    if qa == qb:
        return qa, a._idx, a._cap, b._idx, b._cap
    q = math.lcm(qa, qb)
    ma, mb = q // qa, q // qb
    return (q, [x * ma for x in a._idx], a._cap if a._cap is INF else a._cap * ma,
            [x * mb for x in b._idx], b._cap if b._cap is INF else b._cap * mb)


def _product_cap(ia, ta, ib, tb):
    """Truncation index of a product of series with indices ``ia``, ``ib``
    and truncation indices ``ta``, ``tb`` on one grid.

    Writing each factor as (known part) + (error of valuation >= trunc),
    the product error has valuation >= min(a.trunc + v(b), b.trunc + v(a));
    a factor that is zero to all known orders contributes through its own
    truncation, and an exactly-zero factor kills the error entirely.
    """
    va = ia[0] if ia else ta     # ta is INF for the exact zero
    vb = ib[0] if ib else tb
    cap = INF
    if ta is not INF and vb is not INF:
        cap = ta + vb
    if tb is not INF and va is not INF:
        cap = min(cap, tb + va)
    return cap


def _support_recurrence(u: NovikovSeries, exp: bool) -> NovikovSeries:
    """``exp(u)`` (``exp=True``) or ``1/(1+u)`` modulo ``T^u.trunc``.

    ``u`` has positive valuation and a finite truncation, so its indices
    ``s`` on (1/q)Z lie in ``0 < s < cap``.  The indices of the result
    lie in the monoid generated by them; a heap visits them in
    increasing order, and

        exp:      x e_x = sum_s s u_s e_{x-s}    (from e' = u'e)
        inverse:    e_x = -sum_s u_s e_{x-s}     (from (1+u) e = 1)

    so every ``e_{x-s}`` is known when ``e_x`` is formed.  The cost is
    (output terms) x (terms of ``u``), independent of ``cap``.  Exact
    mode yields the same rationals as summing powers: with ``u_s`` the
    int ``n_s`` over ``d``, each ``e_x`` is an int over its own int
    denominator, which the division by ``d`` (and by ``x``) multiplies
    and one gcd reduces.  Float mode prunes below ``tol`` once, at the
    end.
    """
    cap = u._cap
    gens = [(s, s * c if exp else -c) for s, c in zip(u._idx, u._coeffs)]
    heap = [s for s, _ in gens if s < cap]
    seen = set(heap)
    support = []    # the heap pops in increasing order, so this is sorted
    while heap:
        x = heapq.heappop(heap)
        support.append(x)
        for s, _ in gens:
            y = x + s
            if y >= cap:
                break
            if y not in seen:
                seen.add(y)
                heapq.heappush(heap, y)
    if u.mode == FLOAT:
        coeffs = {0: 1 + 0j}
        for x in support:
            acc = 0
            for s, w in gens:
                if s > x:
                    break
                prev = coeffs.get(x - s)
                if prev is not None:
                    acc += w * prev
            coeffs[x] = acc / x if exp else acc
        return NovikovSeries._from_indices(u._q, [0] + support,
                                           list(coeffs.values()), cap, FLOAT,
                                           u.tol)
    d = u._den
    nums, dens = {0: 1}, {0: 1}     # e_x = nums[x] / dens[x]
    for x in support:
        num, den = 0, 1
        for s, w in gens:
            if s > x:
                break
            prev = nums.get(x - s)
            if prev is not None:
                pden = dens[x - s]
                if pden == den:
                    num += w * prev
                else:
                    num, den = num * pden + w * prev * den, den * pden
        den *= d * x if exp else d
        g = math.gcd(num, den)
        nums[x], dens[x] = num // g, den // g
    den = math.lcm(*dens.values())
    return NovikovSeries._from_indices(
        u._q, [0] + support,
        [n * (den // e) for n, e in zip(nums.values(), dens.values())], cap,
        EXACT, u.tol, den)


def parse_series(text: str, mode=EXACT, trunc=INF, tol=DEFAULT_TOL) -> NovikovSeries:
    """Parse a compact literal like ``"1 + 2*T^1/2 - T^3"``.

    Terms are separated by ``+``/``-`` signs; each term is either a bare
    scalar or ``c*T^p/q`` (the coefficient may be omitted).  Float-mode
    coefficients may be decimal.
    """
    text = text.replace(" ", "")
    if not text:
        return NovikovSeries.zero(mode=mode, trunc=trunc, tol=tol)
    # split keeping signs
    chunks = []
    cur = ""
    for ch in text:
        if ch in "+-" and cur and cur[-1] not in "eE^/(":
            chunks.append(cur)
            cur = ch
        else:
            cur += ch
    chunks.append(cur)
    terms = []
    for chunk in chunks:
        if "T" in chunk:
            coeff_part, _, exp_part = chunk.partition("T")
            coeff_part = coeff_part.rstrip("*")
            if coeff_part in ("", "+"):
                coeff = 1
            elif coeff_part == "-":
                coeff = -1
            else:
                coeff = Fraction(coeff_part) if mode == EXACT else complex(float(Fraction(coeff_part)))
            exp = Fraction(exp_part.lstrip("^")) if exp_part else Fraction(1)
        else:
            coeff = Fraction(chunk) if mode == EXACT else complex(float(Fraction(chunk)))
            exp = Fraction(0)
        terms.append((exp, coeff))
    return NovikovSeries(terms, trunc=trunc, mode=mode, tol=tol)
