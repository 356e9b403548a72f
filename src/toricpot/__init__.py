"""Exact Novikov-ring calculus for toric fiber potentials.

Moment polytopes, bulk-deformed Landau-Ginzburg potentials, leading term
equations with level flags, torus solvers, order-by-order lifting, and
bulk-balancedness classification with energy bounds.
"""

from .classify import (FiberReport, balanced_locus, classify_fiber,
                       report_bounds, scan)
from .errors import (BadGappedTerm, BadGenerator, BadKahlerParams,
                     BasisConstructionFailed, DegenerateCritical,
                     DivisionByZero, ModeMismatch, MonoidOverflow,
                     NeedsTranscendental, NoFullFlag, NonUnitEvaluation,
                     NotInLambda0P, NotInLattice, NotInterior, OutOfScope,
                     SpanViolation, ToricPotError)
from .leading import (Equation, FlagBasis, LeadingSystem, Level,
                      LevelStructure, flag_basis, leading_equations,
                      level_structure)
from .lifting import (CaseReport, CaseSolution, LiftCertificate,
                      case_analysis_two_point, lift_bulk, lift_point,
                      solution_to_torus)
from .novikov import (DEFAULT_TOL, EXACT, FLOAT, INF, NovikovSeries,
                      parse_series)
from .polytope import (Facet, MomentPolytope, Monomial, ValidationReport,
                       Vertex, ZExpression, build_example)
from .potential import (BulkDeformation, BulkEntry, HessianData,
                        PotentialFunction, euler_check, fano_bulk_potential,
                        leading_potential, with_gapped_tail)
from .solver import (LeadingSolution, SolveResult, normalize, solve,
                     solve_equations, solve_partial)

__version__ = "0.1.0"

__all__ = [
    "BadGappedTerm", "BadGenerator", "BadKahlerParams",
    "BasisConstructionFailed", "BulkDeformation", "BulkEntry", "CaseReport",
    "CaseSolution", "DEFAULT_TOL", "DegenerateCritical", "DivisionByZero",
    "EXACT", "Equation", "FLOAT", "Facet", "FiberReport", "FlagBasis",
    "HessianData", "INF", "LeadingSolution", "LeadingSystem", "Level",
    "LevelStructure", "LiftCertificate", "ModeMismatch", "MomentPolytope",
    "Monomial", "MonoidOverflow", "NeedsTranscendental", "NoFullFlag",
    "NonUnitEvaluation", "NotInLambda0P", "NotInLattice", "NotInterior",
    "NovikovSeries", "OutOfScope", "PotentialFunction", "SolveResult",
    "SpanViolation", "ToricPotError", "ValidationReport", "Vertex",
    "ZExpression", "balanced_locus", "build_example",
    "case_analysis_two_point", "classify_fiber", "euler_check",
    "fano_bulk_potential", "flag_basis", "leading_equations",
    "leading_potential", "level_structure", "lift_bulk", "lift_point",
    "normalize", "parse_series", "report_bounds", "scan", "solution_to_torus",
    "solve", "solve_equations", "solve_partial", "with_gapped_tail",
]
