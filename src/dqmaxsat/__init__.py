"""Synthesis of dependency-respecting strategies that maximize projected model counts."""

from .formula import (
    Cnf,
    DependencyViolation,
    MintermFunction,
    Problem,
    Solution,
    apply_substitution,
    cofactor,
    minterms_of,
)
from .counting import VerificationMismatch, check_solution, count_projected
from .engine import Engine, enumerate_projected
from .oracle import (
    InstanceTooLarge,
    MalformedRequest,
    OracleRequest,
    OracleResult,
    brute_force_dqmaxsat,
    max_count,
    reachable_cells,
)
from .reduction import BudgetExceeded, build_reduction, solve_dqbf, solve_global
from .incremental import IterationRecord, run as solve_incremental
from .local import NoEligibleVariable, functionally_dependent, plan_split, solve_local
from .dimacs import ParseError, parse_instance, render_instance
from .bitvec import ProgramError, encode, lift, parse_program
from .cli import bench_rows, main as cli_main

__all__ = [
    "Cnf",
    "DependencyViolation",
    "MintermFunction",
    "Problem",
    "Solution",
    "apply_substitution",
    "cofactor",
    "minterms_of",
    "VerificationMismatch",
    "check_solution",
    "count_projected",
    "Engine",
    "enumerate_projected",
    "InstanceTooLarge",
    "MalformedRequest",
    "OracleRequest",
    "OracleResult",
    "brute_force_dqmaxsat",
    "max_count",
    "reachable_cells",
    "BudgetExceeded",
    "build_reduction",
    "solve_dqbf",
    "solve_global",
    "IterationRecord",
    "solve_incremental",
    "NoEligibleVariable",
    "functionally_dependent",
    "plan_split",
    "solve_local",
    "ParseError",
    "parse_instance",
    "render_instance",
    "ProgramError",
    "encode",
    "lift",
    "parse_program",
    "bench_rows",
    "cli_main",
]
