"""The four benchmark workloads.

Each workload builds its inputs from a seed, calls one top-level
function of the public ``toricpot`` API per op, and checks every result
against data it computes on its own (facet values, closed forms,
residuals of the original equations).  ``check`` also returns the
canonical record of the result that goes into the output digest.

Op pools are fixed.  The seed picks the op order and, where the work
does not depend on it, part of each input: the witness of a lift and
the signs of rational coefficients.  A run holds whole passes over the
pool, so every seed measures the same amount of work.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction as Q

import toricpot as tp

DIGITS = 6          # decimals kept for float fields in the canonical records


def fnum(x: float) -> str:
    return f"{round(x, DIGITS) + 0.0:.{DIGITS}f}"   # + 0.0 turns -0.0 into 0.0


def cnum(z) -> list:
    z = complex(z)
    return [fnum(z.real), fnum(z.imag)]


def qstr(x) -> str:
    return "inf" if x is tp.INF else str(x)


def ell(P, u) -> list:
    """Facet values <v_i, u> - lambda_i from the facet data alone."""
    return [sum(a * b for a, b in zip(f.v, u)) - f.lam for f in P.facets]


def series_record(s) -> list:
    return [[str(e), *cnum(c)] if s.mode == tp.FLOAT else [str(e), str(c)]
            for e, c in s.terms]


def monomial(y, v) -> complex:
    out = 1.0 + 0j
    for c, p in zip(y, v):
        out *= c ** p
    return out


def inverse(rows) -> list:
    """Exact inverse of a small square rational matrix (Gauss-Jordan)."""
    n = len(rows)
    m = [[Q(x) for x in row] + [Q(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        lead = m[col][col]
        m[col] = [x / lead for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [row[n:] for row in m]


def positive_rational(src) -> Q:
    return Q(src.randint(1, 9), src.randint(1, 9))


class ScanRows:
    """Row scans of the 1/80 grid, both axes, a Fano and a non-Fano shape."""

    name = "scan-rows"
    step = Q(1, 80)
    balanced_row = (2, 24)                    # u2 = 3/10
    balanced_interval = (Q(3, 10), Q(7, 20))  # the paper's (beta, (1+alpha)/4]

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.polytopes = [
            tp.build_example("two_point_blowup", Q(2, 5), Q(3, 10)),
            tp.build_example("k_point_blowup", Q(2, 5), Q(1, 50)),
        ]
        self.ops = []
        for p, P in enumerate(self.polytopes):
            P.vertices()
            # interior test on the grid scaled by 80: integer <v, 80u> > 80*lam
            facets = [(f.v, 80 * f.lam) for f in P.facets]
            for axis in (1, 2):
                for k in range(1, 80):
                    points = []
                    for j in range(1, 80):
                        a, b = (k, j) if axis == 1 else (j, k)
                        if all(v[0] * a + v[1] * b > lam for v, lam in facets):
                            points.append((Q(a, 80), Q(b, 80)))
                    if points:
                        self.ops.append((p, axis, k, points))
        rng.shuffle(self.ops)

    def call(self, op):
        p, axis, k, _ = op
        return tp.scan(self.polytopes[p], self.step, row={axis: Q(k, 80)})

    def check(self, op, reports):
        p, axis, k, points = op
        ok = [r.u for r in reports] == points
        fibers = []
        for r in reports:
            levels = sorted(set(ell(self.polytopes[p], r.u)))
            if r.status == "BulkBalanced":
                expected = tp.INF
            else:
                l0 = r.partial_level
                expected = levels[l0] if l0 < len(levels) else tp.INF
            ok &= r.threshold_bound == expected
            fibers.append([[str(x) for x in r.u], r.status,
                           qstr(r.threshold_bound), r.partial_level,
                           r.certified,
                           [[cnum(w.values[lab]) for lab in sorted(w.values)]
                            for w in r.witnesses]])
        if (axis, k) == self.balanced_row:
            lo, hi = self.balanced_interval
            ok &= ([r.u[0] for r in reports if r.balanced]
                   == [u[0] for u in points if lo < u[0] <= hi])
        name = self.polytopes[p].name
        return ok, {"op": [name, axis, k], "fibers": fibers}


class LiftVerify:
    """Bulk lifts at balanced fibers, checked by the gradient oracle."""

    name = "lift-verify"
    max_q = 16        # exponent grid: lcm of the facet-value denominators

    def __init__(self, seed: int):
        rng = random.Random(seed)
        third = Q(1, 3)
        fibers = [("cp2", tp.build_example("cpn", 2), (third, third)),
                  ("one_point_blowup_monotone",
                   tp.build_example("one_point_blowup_monotone"),
                   (third, third))]
        for b in range(2, self.max_q + 1):
            for a in range(1, b):
                alpha = Q(a, b)
                if alpha.denominator != b or not third < alpha < 1:
                    continue
                beta = (1 - alpha) / 2
                P = tp.build_example("two_point_blowup", alpha, beta)
                for d in range(2, self.max_q + 1):
                    for k in range(1, d):
                        u = (Q(k, d), beta)
                        if (u[0].denominator != d
                                or not beta < u[0] <= (1 + alpha) / 4):
                            continue
                        q = math.lcm(*(x.denominator for x in ell(P, u)))
                        if q <= self.max_q:
                            fibers.append(
                                (f"two_point_blowup({alpha},{beta})", P, u))
        for _, P, _ in fibers:
            P.vertices()
        self.ops = [(label, P, u, Q(N), rng.random())
                    for label, P, u in fibers for N in (2, 3)]
        rng.shuffle(self.ops)

    def call(self, op):
        _, P, u, N, pick = op
        result = tp.solve(tp.leading_equations(P, u))
        witness = result.solutions[int(pick * len(result.solutions))]
        bulk, y, cert = tp.lift_bulk(P, u, witness, N)
        F = tp.fano_bulk_potential(P, u, bulk, trunc=N)
        residuals, _ = F.gradient_residual(
            [tp.NovikovSeries.const(c, mode=tp.FLOAT) for c in y])
        return witness, bulk, y, cert, residuals

    def check(self, op, out):
        label, _, u, N, _ = op
        witness, bulk, y, cert, residuals = out
        worst = max((abs(c) for r in residuals for e, c in r.terms if e < N),
                    default=0.0)
        rv = cert.residual_valuation
        ok = (worst <= 1e-8 and (rv is tp.INF or rv >= N)
              and cert.congruences_checked
              and all(s < t for s, t in zip(cert.steps, cert.steps[1:])))
        return ok, {
            "op": [label, [str(x) for x in u], str(N)],
            "witness": [cnum(witness.values[lab])
                        for lab in sorted(witness.values)],
            "y": [cnum(c) for c in y],
            "steps": [str(s) for s in cert.steps],
            "grown": [str(g) for g in cert.monoid_grown],
            "bulk": {str(i): series_record(e.plus)
                     for i, e in sorted(bulk.items())},
        }


class NewtonCases:
    """The two-point blow-up case analysis with Newton-lifted roots."""

    name = "newton-cases"
    alphas = (Q(2, 5), Q(1, 2), Q(3, 5), Q(2, 3), Q(3, 4), Q(4, 5), Q(5, 6),
              Q(5, 9))
    kappa_scales = (Q(1, 3), Q(1, 2), Q(2, 3), Q(1), Q(3, 2), Q(2))
    counts = {1: 2, 2: 3, 3: 1, 4: 3}   # roots with multiplicity per case

    def __init__(self, seed: int):
        # The number of Newton steps, and so the cost, moves with the
        # noise-level terms of the lift, which change with any change of
        # w (even its conjugate).  The weights are therefore fixed per slot
        # and the seed only sets the order.
        shape = random.Random(self.name)
        self.ops = []
        for alpha in self.alphas:
            threshold = alpha / 2 - Q(1, 6)
            for scale in self.kappa_scales:
                for N, r in ((2, 1.0), (3, 0.75)):
                    # |w| <= 1: at alpha = 2/5 and N = 3, |w| = 2 makes
                    # the Newton lift raise DegenerateCritical
                    w = r * cmath.exp(2j * math.pi * shape.random())
                    self.ops.append((alpha, threshold * scale, w, N, False))
            # w^3 = -27/2 makes the case-4 cubic a double root.  N = 2 only:
            # at alpha = 2/5 and N = 3 the simple root's lift raises
            # DegenerateCritical
            for k in (0, 1):
                w = -(27 / 2) ** (1 / 3) * cmath.exp(2j * math.pi * k / 3)
                self.ops.append((alpha, threshold, w, 2, True))
        random.Random(seed).shuffle(self.ops)

    def call(self, op):
        alpha, kappa, w, N, _ = op
        return tp.case_analysis_two_point(alpha, w, kappa, N=N)

    def check(self, op, reports):
        alpha, kappa, w, N, degenerate = op
        beta = (1 - alpha) / 2
        threshold = alpha / 2 - Q(1, 6)
        expected_cases = ([1, 3] if kappa < threshold else
                          [2] if kappa > threshold else [4])
        ok = [r.case for r in reports] == expected_cases
        fiber = {1: ((1 + alpha) / 4 - kappa / 2, beta),
                 3: (beta + kappa, beta)}
        cases = []
        for r in reports:
            ok &= r.u == fiber.get(r.case, (Q(1, 3), beta))
            ok &= sum(s.multiplicity for s in r.solutions) == \
                self.counts.get(r.case)
            mults = sorted(s.multiplicity for s in r.solutions)
            ok &= r.degenerate == degenerate
            ok &= mults == ([1, 2] if degenerate else [1] * len(mults))
            sols = []
            for s in r.solutions:
                c, d = s.c_bar, s.d_bar
                leading = {1: (d * d + 2 / w, c - w / 2),
                           2: (d ** 3 + 2, c - d / 2),
                           3: (d + w, c + 1 / w ** 2),
                           4: (d * d * (d + w) + 2, c - (w + d) / 2)}
                ok &= all(abs(x) <= 1e-8 for x in leading[r.case])
                rv = s.lift_residual_valuation
                if s.multiplicity == 1:
                    ok &= s.lifted is not None and (rv is tp.INF or rv >= N)
                sols.append([cnum(c), cnum(d), s.multiplicity,
                             None if rv is None else qstr(rv),
                             [series_record(y) for y in s.lifted or []]])
            cases.append([r.case, [str(x) for x in r.u], str(r.mu),
                          r.degenerate, sols])
        return ok, {"op": [str(alpha), str(kappa), cnum(w), N],
                    "cases": cases}


class ExactGeneralized:
    """Generalized leading systems at centres and exact-mode calculus."""

    name = "exact-generalized"
    third = Q(1, 3)
    centres = (
        ("cp1", (), (Q(1, 2),), 2, 12),
        ("cpn", (2,), (third,) * 2, 3, 12),
        ("cpn", (3,), (Q(1, 4),) * 3, 4, 8),
        ("cpn", (4,), (Q(1, 5),) * 4, 5, 20),
        ("one_point_blowup_monotone", (), (third,) * 2, 4, 12),
        ("two_point_blowup", (third, third), (third,) * 2, 5, 12),
    )   # name, parameters, centre, roots with multiplicity, solve ops
    # Two coefficient sets per centre, alternating, and these counts put
    # p50 inside the cluster of stage (a)/(b) solves and p90 inside the
    # cluster of cpn(4) stage (c) solves, not in a gap between clusters.
    euler_variants = 4
    pairing_ops = 32

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.ops = []
        for name, params, u, roots, count in self.centres:
            P = tp.build_example(name, *params)
            P.vertices()
            for v in range(count):
                shape = random.Random(f"{P.name}/{v % 2}")
                coeffs = {i: positive_rational(shape) for i in range(P.m)
                          if shape.random() < 0.75}
                # negating every coefficient negates every equation and
                # leaves the solver's work unchanged
                sign = rng.choice((-1, 1))
                coeffs = {i: sign * coeffs.get(i, 1) for i in range(P.m)}
                self.ops.append(("solve", P, u, coeffs, roots))
            if P.n > 3:
                continue
            for N in (3, 5):
                for v in range(self.euler_variants):
                    # the seed picks only signs, which keep the sizes of
                    # all the rationals and so the series work
                    shape = random.Random(f"{P.name}/{N}/{v}")
                    entries = {}
                    for i in range(P.m):
                        if shape.random() < 0.25:
                            continue
                        terms = [(Q(shape.randint(1, 6), shape.randint(2, 6)),
                                  rng.choice((-1, 1))
                                  * positive_rational(shape))
                                 for _ in range(shape.randint(1, 2))]
                        entries[i] = tp.NovikovSeries(terms, mode=tp.EXACT,
                                                      trunc=N + 1)
                    self.ops.append(("euler", P, u, entries, Q(N)))
        self.cp1 = tp.build_example("cp1")
        self.ops += [("pairing",)] * self.pairing_ops
        rng.shuffle(self.ops)

    def call(self, op):
        if op[0] == "solve":
            _, P, u, coeffs, _ = op
            system = tp.leading_equations(P, u, coefficients=coeffs)
            return system, tp.solve(system)
        if op[0] == "euler":
            _, P, u, entries, N = op
            bulk = tp.BulkDeformation(entries, mode=tp.EXACT)
            return tp.euler_check(P, bulk, u, N)
        half = Q(1, 2)
        F = tp.leading_potential(self.cp1, [half], mode=tp.EXACT)
        out = {}
        for sign in (1, -1):
            y = [tp.NovikovSeries.const(sign, mode=tp.EXACT)]
            _, kv = F.gradient_residual(y)
            out[sign] = (kv, F.hessian(y))
        identity = tp.NovikovSeries.monomial(1, half, mode=tp.EXACT) * (
            out[1][1].residue_self_pairing - out[-1][1].residue_self_pairing)
        return out, identity

    def check(self, op, out):
        if op[0] == "solve":
            return self._check_solve(op, out)
        if op[0] == "euler":
            _, P, u, entries, N = op
            equal, residual = out
            return (equal and residual is tp.INF,
                    {"op": ["euler", P.name, str(N),
                            {str(i): series_record(s)
                             for i, s in sorted(entries.items())}],
                     "equal": equal, "residual": qstr(residual)})
        half = Q(1, 2)
        values, identity = out
        ok = identity == tp.NovikovSeries.one(mode=tp.EXACT)
        record = {"op": ["pairing"], "identity": series_record(identity)}
        for sign, (kv, hd) in values.items():
            ok &= kv is tp.INF
            ok &= hd.matrix[0][0] == tp.NovikovSeries.monomial(
                2 * sign, half, mode=tp.EXACT)
            ok &= hd.residue_self_pairing == tp.NovikovSeries.monomial(
                Q(sign, 2), -half, mode=tp.EXACT)
            record[str(sign)] = series_record(hd.residue_self_pairing)
        return ok, record

    def _check_solve(self, op, out):
        _, P, u, coeffs, roots = op
        system, result = out
        labels = system.basis.labels
        back = inverse(system.basis.rows)
        ok = sum(s.multiplicity or 1 for s in result.solutions) == roots
        flags = [[s.values[lab] for lab in labels] for s in result.solutions]
        for flag in flags:
            # y_j = prod_s Y_s^{(R^-1)_{js}} undoes Y_s = y^{R_s}
            y = [monomial(flag, [int(x) for x in row]) for row in back]
            for j in range(P.n):
                parts = [coeffs[i] * f.v[j] * monomial(y, f.v)
                         for i, f in enumerate(P.facets)]
                ok &= abs(sum(parts)) <= 1e-8 * max(
                    1.0, sum(abs(x) for x in parts))
        ok &= all(max(abs(a - b) for a, b in zip(f, g)) > 1e-6
                  for i, f in enumerate(flags) for g in flags[i + 1:])
        return ok, {"op": ["solve", P.name, {str(i): str(c) for i, c in
                                             sorted(coeffs.items())}],
                    "path": result.path, "certified": result.certified,
                    "solutions": [[[cnum(v) for v in flag], s.multiplicity]
                                  for flag, s in zip(flags,
                                                     result.solutions)]}


WORKLOADS = {cls.name: cls for cls in
             (ScanRows, LiftVerify, NewtonCases, ExactGeneralized)}
