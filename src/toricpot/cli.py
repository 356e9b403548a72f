"""Command-line front end and golden reproduction scenarios."""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .classify import balanced_locus, classify_fiber, report_bounds, scan
from .errors import ToricPotError
from .leading import leading_equations
from .lifting import case_analysis_two_point, lift_bulk, lift_point
from .novikov import EXACT, FLOAT, INF, NovikovSeries, parse_series
from .polytope import EXAMPLE_NAMES, MomentPolytope, build_example
from .potential import (BulkDeformation, BulkEntry, fano_bulk_potential,
                        leading_potential)
from .solver import solve, solve_partial

SCHEMA = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(1)


# -- input parsing ----------------------------------------------------------

def _frac(text) -> Fraction:
    return Fraction(str(text))


def _parse_u(text: str):
    return tuple(_frac(p) for p in str(text).split(","))


def _parse_scalar(value):
    if isinstance(value, (int, float)):
        return value
    if isinstance(value, list) and len(value) == 2:
        return complex(value[0], value[1])
    text = str(value).strip()
    try:
        return Fraction(text)
    except ValueError:
        return complex(text.replace(" ", ""))


def _load_json_arg(text: str):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def _load_polytope(spec: str) -> MomentPolytope:
    if spec.startswith("example:"):
        name, *params = spec[len("example:"):].split(":")
        return build_example(name, *[_frac(p) for p in params])
    with open(spec, "r", encoding="utf-8") as fh:
        return MomentPolytope.from_dict(json.load(fh))


def _load_fiber(args):
    """The polytope and the interior point named by ``--polytope`` and
    ``--u``."""
    return _load_polytope(args.polytope), _parse_u(args.u)


def _fiber_potential(args, P, u, mode, trunc):
    """The potential at ``u``, deformed by the ``--bulk`` weights if any."""
    if args.bulk:
        bulk = _parse_bulk(args.bulk, mode, args.tol, trunc)
        return fano_bulk_potential(P, u, bulk, trunc=trunc, tol=args.tol)
    return leading_potential(P, u, mode=mode, trunc=trunc, tol=args.tol)


def _parse_bulk(spec, mode, tol, trunc) -> BulkDeformation:
    """Facet-index to weight map; values are series literals or records.

    The unit-split form ``{"exp_b0": scalar, "b_plus": literal}`` supplies
    the exponential of the order-zero part directly as a scalar.
    """
    data = _load_json_arg(spec) if isinstance(spec, str) else spec
    entries = {}
    for key, value in data.items():
        i = int(key)
        if isinstance(value, dict) and ("exp_b0" in value or
                                        "b_plus" in value):
            unit = _parse_scalar(value.get("exp_b0", 1))
            plus_spec = value.get("b_plus", "")
            plus = _parse_entry_series(plus_spec, mode, tol, trunc)
            entries[i] = BulkEntry(plus=plus, unit=unit)
        else:
            entries[i] = BulkEntry(plus=_parse_entry_series(value, mode, tol,
                                                            trunc))
    return BulkDeformation(entries, mode=mode, tol=tol)


def _parse_entry_series(value, mode, tol, trunc) -> NovikovSeries:
    if isinstance(value, list):
        return NovikovSeries.from_records(value, mode=mode, trunc=trunc,
                                          tol=tol)
    return parse_series(str(value), mode=mode, trunc=trunc, tol=tol)


def _parse_coeffs(spec):
    if spec is None:
        return None
    data = _load_json_arg(spec) if isinstance(spec, str) else spec
    return {int(k): _parse_scalar(v) for k, v in data.items()}


def _parse_point(text: str):
    return [complex(p.replace(" ", "")) for p in str(text).split(",")]


# -- output -----------------------------------------------------------------

def _emit(payload: dict, lines, as_json: bool):
    if as_json:
        payload = {"schema": SCHEMA, **payload}
        print(json.dumps(payload, sort_keys=True, indent=2,
                         separators=(",", ": ")))
    else:
        for line in lines:
            print(line)


def _exp_str(e):
    return "inf" if e is INF else str(e)


def _series_repr(s: NovikovSeries):
    return repr(s)[1:-1]


def _monome(exponents, names):
    parts = []
    for name, p in zip(names, exponents):
        if p == 1:
            parts.append(name)
        elif p != 0:
            parts.append(f"{name}^{p}")
    return "*".join(parts) or "1"


def _equation_str(eq, names):
    chunks = []
    for e, c in sorted(eq.terms.items()):
        chunks.append(f"({c!s})*{_monome(e, names)}")
    return " + ".join(chunks) + " = 0" if chunks else "0 = 0"


# -- subcommands ------------------------------------------------------------

def _cmd_polytope(args):
    if args.action == "validate":
        P = _load_polytope(args.file)
        report = P.validate()
        payload = {
            "name": P.name,
            "valid": report.valid,
            "failures": report.failures,
            "vertices": [[str(x) for x in v.point] for v in report.vertices],
        }
        lines = [f"polytope {P.name or args.file}: "
                 f"{'valid' if report.valid else 'INVALID'}"]
        lines += [f"  failure: {f}" for f in report.failures]
        lines += [f"  vertex {tuple(str(x) for x in v.point)}"
                  for v in report.vertices]
        _emit(payload, lines, args.json)
        return 0 if report.valid else 1
    # example
    params = [_frac(p) for p in (args.params.split(",") if args.params else [])]
    P = build_example(args.name, *params)
    doc = P.to_dict()
    text = json.dumps(doc, sort_keys=True, indent=2, separators=(",", ": "))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        _emit({"written": args.out, "polytope": doc},
              [f"wrote {args.out}"], args.json)
    else:
        print(text)
    return 0


def _cmd_potential(args):
    P, u = _load_fiber(args)
    trunc = _frac(args.trunc) if args.trunc else INF
    F = _fiber_potential(args, P, u, args.mode, trunc)
    names = [f"y{i+1}" for i in range(P.n)]
    payload = {"n": P.n, "terms": [
        {"exponents": list(e), "coefficient": c.to_records(),
         "trunc": _exp_str(c.trunc)} for c, e in F.terms]}
    lines = [f"potential at u=({', '.join(str(x) for x in u)}):"]
    lines += [f"  ({_series_repr(c)}) * {_monome(e, names)}" for c, e in F.terms]
    _emit(payload, lines, args.json)
    return 0


def _cmd_leading(args):
    P, u = _load_fiber(args)
    coeffs = _parse_coeffs(args.coeffs)
    system = leading_equations(P, u, args.cutoff, coeffs)
    fb = system.basis
    ls = fb.structure
    names = [f"y[{l},{s}]" for l, s in fb.labels]
    payload = {
        "levels": [{"S": str(lev.S),
                    "facets": [i for i, _ in lev.members],
                    "rank_increment": ls.d[j]}
                   for j, lev in enumerate(ls.levels)],
        "K": ls.K,
        "flag_basis": [list(map(int, row)) for row in fb.rows],
        "variables": names,
        "cutoff": system.cutoff,
        "generalized": system.generalized,
        "equations": [
            {"variable": f"y[{eq.label[0]},{eq.label[1]}]",
             "terms": [{"exponents": list(e), "coefficient": str(c)}
                       for e, c in sorted(eq.terms.items())]}
            for eq in system.equations],
    }
    lines = ["levels:"]
    lines += [f"  S_{j+1} = {lev.S}  facets {[i for i, _ in lev.members]}"
              f"  d={ls.d[j]}" for j, lev in enumerate(ls.levels)]
    lines.append(f"K = {ls.K}")
    lines.append("flag basis rows: " + "; ".join(str(r) for r in fb.rows))
    lines.append("equations:")
    lines += [f"  d/d{ names[fb.labels.index(eq.label)] }: "
              f"{_equation_str(eq, names)}" for eq in system.equations]
    _emit(payload, lines, args.json)
    return 0


def _cmd_solve(args):
    P, u = _load_fiber(args)
    coeffs = _parse_coeffs(args.coeffs)
    result = solve_partial(P, u, args.cutoff, coefficients=coeffs,
                           tol=args.tol)
    payload = {
        "path": result.path,
        "certified": result.certified,
        "solutions": [s.to_dict() for s in result.solutions],
    }
    lines = [f"path {result.path or '-'}; certified={result.certified}; "
             f"{len(result.solutions)} solution(s)"]
    for s in result.solutions:
        vals = ", ".join(f"Y{l}_{sd}={v}" for (l, sd), v in
                         sorted(s.values.items()))
        extra = f" free={sorted(s.free)}" if s.free else ""
        mult = f" mult={s.multiplicity}" if s.multiplicity else ""
        lines.append(f"  {vals}{extra}{mult}  residual={s.residual:.2e}")
    _emit(payload, lines, args.json)
    if args.require_certified and not result.certified:
        return 2
    return 0


def _cmd_lift(args):
    P, u = _load_fiber(args)
    N = _frac(args.order)
    point = _parse_point(args.solution)
    if args.kind == "bulk":
        gens = [_frac(g) for g in args.generators.split(",")] \
            if args.generators else ()
        bulk, y, cert = lift_bulk(P, u, point, N, gens=gens, tol=args.tol)
        payload = {
            "bulk": {str(i): e.plus.to_records() for i, e in bulk.items()},
            "y": [[c.real, c.imag] for c in y],
            "certificate": {
                "order": str(cert.order),
                "residual_valuation": _exp_str(cert.residual_valuation),
                "steps": [str(s) for s in cert.steps],
                "monoid_used": [str(g) for g in cert.monoid_generators],
                "monoid_grown": [str(g) for g in cert.monoid_grown],
                "congruences_checked": cert.congruences_checked,
            },
        }
        lines = [f"bulk lift to order {N}: residual valuation "
                 f"{_exp_str(cert.residual_valuation)}"]
        for i, e in sorted(bulk.items()):
            lines.append(f"  facet {i}: {_series_repr(e.plus)}")
    else:
        F = _fiber_potential(args, P, u, FLOAT, N + 1)
        y, kv = lift_point(F, point, N, tol=args.tol)
        payload = {
            "y": [s.to_records() for s in y],
            "certificate": {"order": str(N),
                            "residual_valuation": _exp_str(kv)},
        }
        lines = [f"point lift to order {N}: residual valuation {_exp_str(kv)}"]
        lines += [f"  y{i+1} = {_series_repr(s)}" for i, s in enumerate(y)]
    _emit(payload, lines, args.json)
    return 0


def _fiber_payload(rep):
    doc = rep.to_dict()
    doc["bounds"] = report_bounds(rep)
    return doc


def _cmd_classify(args):
    P, u = _load_fiber(args)
    coeffs = _parse_coeffs(args.coeffs)
    lift_order = _frac(args.lift_order) if args.lift_order else None
    rep = classify_fiber(P, u, coefficients=coeffs, lift_order=lift_order,
                         tol=args.tol)
    payload = _fiber_payload(rep)
    lines = [f"u=({', '.join(str(x) for x in u)}): {rep.status}",
             f"  threshold bound: {_exp_str(rep.threshold_bound)} "
             f"(area/2pi); physical "
             f"{payload['bounds']['threshold']['physical']}",
             f"  intersection bound: {rep.intersection_bound}"]
    _emit(payload, lines, args.json)
    return 0


def _cmd_scan(args):
    P = _load_polytope(args.polytope)
    row = None
    if args.row:
        row = {}
        for clause in args.row.split(","):
            key, value = clause.split("=")
            row[int(key.strip().lstrip("u"))] = _frac(value)
    reports = scan(P, _frac(args.step), row=row,
                   coefficients=_parse_coeffs(args.coeffs), tol=args.tol)
    locus = balanced_locus(reports)
    payload = {
        "reports": [_fiber_payload(r) for r in reports],
        "balanced": [[str(x) for x in u] for u in locus],
    }
    lines = [f"{len(reports)} fibers scanned; {len(locus)} bulk-balanced"]
    for r in reports:
        mark = "*" if r.balanced else " "
        lines.append(f" {mark} u=({', '.join(str(x) for x in r.u)}) "
                     f"{r.status} thr={_exp_str(r.threshold_bound)}")
    _emit(payload, lines, args.json)
    return 0


# -- repro scenarios --------------------------------------------------------

def _check(checks, name, expected, got, ok=None):
    if ok is None:
        ok = expected == got
    checks.append({"name": name, "expected": str(expected), "got": str(got),
                   "pass": bool(ok)})
    return ok


def _repro_cp1_residue(args):
    checks = []
    P = build_example("cp1")
    reports = scan(P, Fraction(1, 10))
    locus = balanced_locus(reports)
    _check(checks, "critical fiber only at u=1/2",
           [(Fraction(1, 2),)], locus)
    half = Fraction(1, 2)
    F = leading_potential(P, [half], mode=EXACT)
    z = {}  # residue pairing at y = sign
    for sign in (1, -1):
        y = [NovikovSeries.const(sign, mode=EXACT)]
        residuals, kv = F.gradient_residual(y)
        _check(checks, f"y={sign} critical", True, kv is INF)
        hd = F.hessian(y)
        expected = NovikovSeries.monomial(2 * sign, half, mode=EXACT)
        _check(checks, f"Hessian at y={sign}", _series_repr(expected),
               _series_repr(hd.matrix[0][0]), hd.matrix[0][0] == expected)
        pairing = NovikovSeries.monomial(Fraction(sign, 2), -half, mode=EXACT)
        _check(checks, f"residue pairing at y={sign}", _series_repr(pairing),
               _series_repr(hd.residue_self_pairing),
               hd.residue_self_pairing == pairing)
        z[sign] = hd.residue_self_pairing
    # <T^(1/2)(1_+ - 1_-), 1_+ + 1_-> with orthogonal idempotents
    value = NovikovSeries.monomial(1, half, mode=EXACT) * (z[1] - z[-1])
    one = NovikovSeries.one(mode=EXACT)
    _check(checks, "pairing identity", _series_repr(one),
           _series_repr(value), value == one)
    return checks


def _repro_one_point_blowup_a2(args):
    checks = []
    c = Fraction(-27, 256)
    _check(checks, "exact double-root identity",
           c, Fraction(-3, 4) ** 4 + Fraction(-3, 4) ** 3)
    P = build_example("one_point_blowup_monotone")
    u = (Fraction(1, 3), Fraction(1, 3))
    facet_d2 = next(i for i, f in enumerate(P.facets) if f.v == (0, 1))
    system = leading_equations(P, u, coefficients={facet_d2: c})
    result = solve(system, tol=args.tol)
    _check(checks, "certified", True, result.certified)
    by_mult = sorted(result.solutions,
                     key=lambda s: -(s.multiplicity or 1))
    top = by_mult[0]
    _check(checks, "double root multiplicity", 2, top.multiplicity)
    y1 = top.values[(2, 1)] if (2, 1) in top.values else top.values[(1, 1)]
    _check(checks, "double root value", complex(-0.75),
           complex(round(y1.real, 9), round(y1.imag, 9)))
    total = sum(s.multiplicity or 1 for s in result.solutions)
    _check(checks, "root count with multiplicity", 4, total)
    # degenerate Hessian at the double root
    bulk = BulkDeformation({facet_d2: BulkEntry(
        NovikovSeries.zero(mode=FLOAT), unit=complex(c))}, mode=FLOAT)
    F = fano_bulk_potential(P, u, bulk, trunc=Fraction(2)).to_float()
    from .lifting import solution_to_torus
    y = solution_to_torus(P, u, top)
    hd = F.hessian([NovikovSeries.const(v, mode=FLOAT) for v in y])
    lead = abs(hd.det.terms[0][1]) if hd.det.terms else 0.0
    _check(checks, "Hessian determinant vanishes to leading order", True,
           hd.degenerate or lead < 1e-8)
    return checks


def _case_expectations(alpha, kappa):
    threshold = Fraction(alpha) / 2 - Fraction(1, 6)
    if Fraction(kappa) < threshold:
        return {1: 2, 3: 1}
    if Fraction(kappa) > threshold:
        return {2: 3}
    return {4: 3}


def _repro_two_point_cases(args):
    checks = []
    alpha = _frac(args.alpha) if args.alpha else Fraction(2, 5)
    w = _parse_scalar(args.w) if args.w else 1
    configs = []
    if args.kappa:
        configs.append((alpha, w, _frac(args.kappa)))
    else:
        configs = [(alpha, 1, Fraction(1, 100)),
                   (alpha, 1, Fraction(1, 10)),
                   (alpha, 1, Fraction(1, 30)),
                   (alpha, -float((27 / 2) ** (1 / 3)), Fraction(1, 30))]
    N = Fraction(2)
    for alpha_, w_, kappa_ in configs:
        expected = _case_expectations(alpha_, kappa_)
        reports = case_analysis_two_point(alpha_, w_, kappa_, N=N)
        got = {r.case: sum(s.multiplicity for s in r.solutions)
               for r in reports}
        _check(checks, f"kappa={kappa_} w={w_} root counts with multiplicity",
               expected, got)
        for r in reports:
            if r.case == 1:
                u1 = (1 + Fraction(alpha_)) / 4 - kappa_ / 2
                _check(checks, "Case 1 fiber", (u1, r.beta), r.u)
            if r.case == 3:
                _check(checks, "Case 3 fiber",
                       (r.beta + kappa_, r.beta), r.u)
            if r.case in (2, 4):
                _check(checks, f"Case {r.case} fiber",
                       (Fraction(1, 3), r.beta), r.u)
            if r.case == 4 and isinstance(w_, float):
                _check(checks, "Case 4 double root at w^3=-27/2", True,
                       r.degenerate)
            for s in r.solutions:
                if s.lifted is not None:
                    ok = s.lift_residual_valuation is INF or \
                        s.lift_residual_valuation >= N
                    _check(checks, f"case {r.case} lift residual >= {N}",
                           True, ok)
    return checks


def _repro_two_point_scan(args):
    checks = []
    alpha = _frac(args.alpha) if args.alpha else Fraction(2, 5)
    beta = (1 - alpha) / 2
    step = _frac(args.step) if args.step else Fraction(1, 40)
    P = build_example("two_point_blowup", alpha, beta)
    reports = scan(P, step, row={2: Fraction(3, 10)})
    lo, hi = beta, (1 + alpha) / 4
    inside = [r.u[0] for r in reports if lo < r.u[0] < hi]
    balanced = {r.u[0] for r in reports if r.balanced}
    _check(checks, "all interior-interval fibers balanced", True,
           all(x in balanced for x in inside))
    outside_bad = [x for x in balanced if not lo < x <= hi]
    _check(checks, "no balanced fibers outside the closed interval",
           [], outside_bad)
    return checks


def _repro_three_point_scan(args):
    checks = []
    alpha = _frac(args.alpha) if args.alpha else Fraction(2, 5)
    beta = (1 - alpha) / 2
    eps = _frac(args.eps) if args.eps else Fraction(1, 50)
    step = _frac(args.step) if args.step else Fraction(1, 40)
    P2 = build_example("two_point_blowup", alpha, beta)
    P3 = build_example("k_point_blowup", alpha, eps)
    row = {2: Fraction(3, 10)}
    b2 = [u[0] for u in balanced_locus(scan(P2, step, row=row))]
    b3 = [u[0] for u in balanced_locus(scan(P3, step, row=row))]
    _check(checks, "k=3 balanced interval equals k=2",
           [str(x) for x in b2], [str(x) for x in b3])
    return checks


def _repro_generalized_lte(args):
    checks = []
    alpha = Fraction(2, 5)
    beta = (1 - alpha) / 2
    P = build_example("two_point_blowup", alpha, beta)
    u = (beta, beta)
    facet_d2 = next(i for i, f in enumerate(P.facets) if f.v == (0, 1))
    for c in (Fraction(2), Fraction(-1), Fraction(1, 2)):
        system = leading_equations(P, u, coefficients={facet_d2: c})
        result = solve(system, tol=args.tol)
        got = None
        for s in result.solutions:
            vec = tuple(complex(round(v.real, 9), round(v.imag, 9))
                        for v in s.value_vector(sorted(s.values)))
            got = vec
        _check(checks, f"c={c} solution",
               (complex(1 - c), complex(-1)), got)
    system = leading_equations(P, u, coefficients={facet_d2: Fraction(1)})
    result = solve(system, tol=args.tol)
    _check(checks, "c=1 certified empty (solution forces y1=0)",
           (0, True), (len(result.solutions), result.certified))
    # limit of balanced fibers: solutions persist as c -> 1
    sweep_ok = True
    for k in range(1, 6):
        c = 1 - Fraction(1, 2 ** k)
        r = solve(leading_equations(P, u, coefficients={facet_d2: c}),
                  tol=args.tol)
        sweep_ok = sweep_ok and len(r.solutions) == 1
    _check(checks, "solutions persist along c -> 1", True, sweep_ok)
    return checks


_REPROS = {
    "cp1-residue": _repro_cp1_residue,
    "one-point-blowup-A2": _repro_one_point_blowup_a2,
    "two-point-blowup-cases": _repro_two_point_cases,
    "two-point-blowup-scan": _repro_two_point_scan,
    "three-point-blowup-scan": _repro_three_point_scan,
    "generalized-lte": _repro_generalized_lte,
}


def _cmd_repro(args):
    checks = _REPROS[args.name](args)
    passed = all(c["pass"] for c in checks)
    payload = {"name": args.name, "passed": passed, "checks": checks}
    lines = [f"repro {args.name}: {'PASS' if passed else 'FAIL'}"]
    for c in checks:
        mark = "ok " if c["pass"] else "FAIL"
        lines.append(f"  [{mark}] {c['name']}: expected {c['expected']}, "
                     f"got {c['got']}")
    _emit(payload, lines, args.json)
    return 0 if passed else 2


# -- entry point ------------------------------------------------------------

def _build_parser():
    def parent(*flags, parents=(), **kwargs):
        """A parent parser declaring one option shared by subcommands."""
        p = argparse.ArgumentParser(add_help=False, parents=parents)
        p.add_argument(*flags, **kwargs)
        return p

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol", type=float, default=1e-9)
    common.add_argument("--json", action="store_true",
                        help="emit a canonical JSON report")
    polytope = parent("--polytope", required=True)
    fiber = parent("--u", required=True, parents=[polytope])
    coeffs = parent("--coeffs")
    cutoff = parent("--cutoff", type=int)
    bulk = parent("--bulk")

    parser = _Parser(prog="toricpot",
                     description="Potential functions, leading term "
                                 "equations, and bulk-balanced fibers of "
                                 "toric manifolds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("polytope", parents=[common])
    psub = p.add_subparsers(dest="action", required=True)
    pv = psub.add_parser("validate", parents=[common])
    pv.add_argument("file")
    pe = psub.add_parser("example", parents=[common])
    pe.add_argument("name", choices=sorted(EXAMPLE_NAMES))
    pe.add_argument("--params", default="")
    pe.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_polytope)

    p = sub.add_parser("potential", parents=[common, fiber, bulk])
    p.add_argument("--mode", choices=[EXACT, FLOAT], default=EXACT)
    p.add_argument("--trunc", default=None,
                   help="truncation order for series output")
    p.set_defaults(func=_cmd_potential)

    p = sub.add_parser("leading", parents=[common, fiber, cutoff, coeffs])
    p.set_defaults(func=_cmd_leading)

    p = sub.add_parser("solve", parents=[common, fiber, coeffs, cutoff])
    p.add_argument("--require-certified", action="store_true")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("lift", parents=[common, fiber, bulk])
    p.add_argument("kind", choices=["bulk", "point"])
    p.add_argument("--solution", required=True,
                   help="comma-separated complex coordinates")
    p.add_argument("--order", required=True)
    p.add_argument("--generators", default=None,
                   help="comma-separated extra monoid generators")
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("classify", parents=[common, fiber, coeffs])
    p.add_argument("--lift-order", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("scan", parents=[common, polytope, coeffs])
    p.add_argument("--step", required=True)
    p.add_argument("--row", default=None, help='e.g. "u2=3/10"')
    p.set_defaults(func=_cmd_scan)

    p = sub.add_parser("repro", parents=[common])
    p.add_argument("name", choices=list(_REPROS))
    p.add_argument("--alpha", default=None)
    p.add_argument("--w", default=None)
    p.add_argument("--kappa", default=None)
    p.add_argument("--eps", default=None)
    p.add_argument("--step", default=None)
    p.set_defaults(func=_cmd_repro)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ToricPotError, ValueError, OSError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
