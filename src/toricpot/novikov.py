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
"""

from __future__ import annotations

import cmath
import heapq
import math
from fractions import Fraction
from typing import Iterable, Union

from .errors import DivisionByZero, ModeMismatch, NeedsTranscendental

EXACT = "exact"
FLOAT = "float"
DEFAULT_TOL = 1e-10

INF = math.inf

ExponentLike = Union[Fraction, int, str]


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
        if isinstance(c, int):
            return Fraction(c)
        if isinstance(c, str):
            return Fraction(c)
        raise ModeMismatch(f"exact mode requires rational coefficients, got {c!r}")
    return complex(c)


def _coeff_is_zero(c, mode, tol):
    if mode == EXACT:
        return c == 0
    return abs(c) < tol


class NovikovSeries:
    """Immutable truncated series over the Novikov ring."""

    __slots__ = ("terms", "trunc", "mode", "tol")

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
        clean = sorted(
            (e, c) for e, c in merged.items()
            if e < trunc and not _coeff_is_zero(c, mode, tol)
        )
        object.__setattr__(self, "terms", tuple(clean))
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "tol", tol)

    def __setattr__(self, *args):
        raise AttributeError("NovikovSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, mode=EXACT, trunc=INF, tol=DEFAULT_TOL):
        return cls((), trunc=trunc, mode=mode, tol=tol)

    @classmethod
    def const(cls, c, mode=EXACT, trunc=INF, tol=DEFAULT_TOL):
        return cls([(Fraction(0), c)], trunc=trunc, mode=mode, tol=tol)

    @classmethod
    def one(cls, mode=EXACT, trunc=INF, tol=DEFAULT_TOL):
        return cls.const(1, mode=mode, trunc=trunc, tol=tol)

    @classmethod
    def monomial(cls, coeff, exp, mode=EXACT, trunc=INF, tol=DEFAULT_TOL):
        return cls([(exp, coeff)], trunc=trunc, mode=mode, tol=tol)

    @classmethod
    def _from_sorted(cls, terms, trunc, mode=FLOAT, tol=DEFAULT_TOL):
        """A series from terms that are already merged, sorted by exponent,
        below ``trunc`` and above ``tol``; nothing is checked.  Newton
        lifting builds its output this way: going through ``__init__``
        costs about 9% of the ``newton-cases`` throughput."""
        s = object.__new__(cls)
        object.__setattr__(s, "terms", tuple(terms))
        object.__setattr__(s, "trunc", trunc)
        object.__setattr__(s, "mode", mode)
        object.__setattr__(s, "tol", tol)
        return s

    # -- structure ---------------------------------------------------------

    def valuation(self):
        """Minimal stored exponent; ``math.inf`` for the zero series."""
        return self.terms[0][0] if self.terms else INF

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def in_lambda0(self) -> bool:
        return self.valuation() >= 0

    def in_lambda_plus(self) -> bool:
        return self.valuation() > 0

    def is_unit(self) -> bool:
        """Member of the valuation ring with invertible reduction."""
        return self.valuation() == 0

    def coefficient(self, exp):
        exp = as_exponent(exp)
        for e, c in self.terms:
            if e == exp:
                return c
        return Fraction(0) if self.mode == EXACT else 0j

    def leading(self):
        """(exponent, coefficient) of the lowest order term."""
        if not self.terms:
            raise DivisionByZero("zero series has no leading term")
        return self.terms[0]

    def reduction(self):
        """Constant term, i.e. reduction modulo the maximal ideal."""
        return self.coefficient(0)

    def _check(self, other):
        if not isinstance(other, NovikovSeries):
            raise TypeError("expected NovikovSeries")
        if self.mode != other.mode:
            raise ModeMismatch(f"cannot mix {self.mode} and {other.mode} series")
        return max(self.tol, other.tol)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            other = NovikovSeries.const(other, mode=self.mode, tol=self.tol)
        tol = self._check(other)
        trunc = min(self.trunc, other.trunc)
        return NovikovSeries(self.terms + other.terms, trunc=trunc,
                             mode=self.mode, tol=tol)

    __radd__ = __add__

    def __neg__(self):
        return NovikovSeries([(e, -c) for e, c in self.terms], trunc=self.trunc,
                             mode=self.mode, tol=self.tol)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            other = NovikovSeries.const(other, mode=self.mode, tol=self.tol)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c):
        """Multiply by a scalar of the coefficient field."""
        c = _coerce_coeff(c, self.mode)
        return NovikovSeries([(e, c * a) for e, a in self.terms],
                             trunc=self.trunc, mode=self.mode, tol=self.tol)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            return self.scale(other)
        tol = self._check(other)
        trunc = _product_trunc(self, other)
        out: dict = {}
        for ea, ca in self.terms:
            for eb, cb in other.terms:
                e = ea + eb
                if e >= trunc:
                    continue
                out[e] = out.get(e, 0) + ca * cb
        return NovikovSeries(out.items(), trunc=trunc, mode=self.mode, tol=tol)

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
        if order >= self.trunc:
            return self
        return NovikovSeries(self.terms, trunc=order, mode=self.mode,
                             tol=self.tol)

    def inverse(self, trunc=None):
        """Multiplicative inverse as a Laurent-type series.

        Works for any nonzero series: factor out the lowest term
        ``c T^v``, leaving a unit ``1 + u`` with ``u`` in the maximal
        ideal, and invert that unit by the recurrence
        ``e_x = -sum_s u_s e_{x-s}`` over the exponent support (see
        :func:`_support_recurrence`; cost (output terms) x (terms of
        ``u``)).  If ``u`` is nonzero and no finite truncation is
        available (neither on the series nor via ``trunc``), a finite
        order is required.
        """
        if self.is_zero:
            raise DivisionByZero("cannot invert the zero series")
        v, c = self.leading()
        lead = NovikovSeries.monomial(
            Fraction(1, 1) / c if self.mode == EXACT else 1.0 / c, -v,
            mode=self.mode, tol=self.tol)
        u = self * lead - 1  # element of the maximal ideal
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
        if self.valuation() < 0:
            raise ValueError("exp requires valuation >= 0")
        a0 = self.reduction()
        plus = self - NovikovSeries.const(a0, mode=self.mode, tol=self.tol)
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
            if plus.trunc is INF:
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
        return NovikovSeries([(e, complex(c)) for e, c in self.terms],
                             trunc=self.trunc, mode=FLOAT,
                             tol=self.tol if tol is None else tol)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, float, complex)):
            other = NovikovSeries.const(other, mode=self.mode, tol=self.tol)
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        return (self.mode == other.mode and self.trunc == other.trunc
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.mode, self.trunc, self.terms))

    def approx_eq(self, other, tol=1e-9):
        """Termwise comparison up to ``tol`` on the common truncation."""
        trunc = min(self.trunc, other.trunc)
        diff = (self.truncate(trunc).to_float()
                - other.truncate(trunc).to_float())
        return all(abs(c) <= tol for _, c in diff.terms)

    def __repr__(self):
        if not self.terms:
            body = "0"
        else:
            parts = []
            for e, c in self.terms:
                if e == 0:
                    parts.append(f"{c}")
                else:
                    parts.append(f"{c}*T^{e}")
            body = " + ".join(parts)
        if self.trunc is not INF:
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


def _support_recurrence(u: NovikovSeries, exp: bool) -> NovikovSeries:
    """``exp(u)`` (``exp=True``) or ``1/(1+u)`` modulo ``T^u.trunc``.

    ``u`` has positive valuation and a finite truncation.  With ``q`` the
    lcm of the denominators of ``u.trunc`` and of the exponents of ``u``,
    exponent ``e`` becomes the int index ``x = q*e`` below
    ``cap = q*u.trunc``.  The indices of the result lie in the monoid
    generated by supp(u); a heap visits them in increasing order, and

        exp:      x e_x = sum_s s u_s e_{x-s}    (from e' = u'e)
        inverse:    e_x = -sum_s u_s e_{x-s}     (from (1+u) e = 1)

    so every ``e_{x-s}`` is known when ``e_x`` is formed.  The cost is
    (output terms) x (terms of ``u``) on int keys, independent of
    ``cap``.  Exact mode yields the same rationals as summing powers;
    float mode prunes below ``tol`` once, at the end.
    """
    q = math.lcm(u.trunc.denominator, *(e.denominator for e, _ in u.terms))
    cap = int(u.trunc * q)
    gens = []
    for e, c in u.terms:
        s = int(e * q)
        gens.append((s, s * c if exp else -c))
    coeffs = {0: Fraction(1) if u.mode == EXACT else 1 + 0j}
    heap = [s for s, _ in gens if s < cap]
    seen = set(heap)
    while heap:
        x = heapq.heappop(heap)
        acc = 0
        for s, w in gens:
            if s > x:
                break
            prev = coeffs.get(x - s)
            if prev is not None:
                acc += w * prev
        coeffs[x] = acc / x if exp else acc
        for s, _ in gens:
            y = x + s
            if y >= cap:
                break
            if y not in seen:
                seen.add(y)
                heapq.heappush(heap, y)
    return NovikovSeries([(Fraction(x, q), c) for x, c in coeffs.items()],
                         trunc=u.trunc, mode=u.mode, tol=u.tol)


def _product_trunc(a: NovikovSeries, b: NovikovSeries):
    """Truncation order of a product.

    Writing each factor as (known part) + (error of valuation >= trunc),
    the product error has valuation >= min(a.trunc + v(b), b.trunc + v(a));
    a factor that is zero to all known orders contributes through its own
    truncation, and an exactly-zero factor kills the error entirely.
    """

    def effective_valuation(x):
        if not x.is_zero:
            return x.valuation()
        return x.trunc  # INF for the exact zero

    candidates = []
    if a.trunc is not INF:
        vb = effective_valuation(b)
        if vb is not INF:
            candidates.append(a.trunc + vb)
    if b.trunc is not INF:
        va = effective_valuation(a)
        if va is not INF:
            candidates.append(b.trunc + va)
    return min(candidates) if candidates else INF


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
