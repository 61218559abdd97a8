"""Bounded arithmetic workbench: formulas, primitive recursion, coding."""

from .formulas import (
    Add, And, BExists, BForall, CaptureError, ConstOne, ConstZero, Eq,
    Formula, FormulaError, Implies, Le, Mul, Not, ONE, Or, ParseError, Term,
    UExists, UForall, Var, ZERO, desugar, free_vars, fresh_index, is_delta0,
    lt, numeral, parse, parse_formula, parse_term, show, substitute,
)
from .primrec import (
    ArityError, Comp, Evaluator, FeasibilityError, PRError, PRTerm, PrimRec,
    Proj, Succ, Zero, eval_pr, parse_pr, serialize, validate,
)
from .semantics import (
    EvalError, NotDelta0Error, UnboundVariableError, Verdict, eval_delta0,
    eval_delta0_verdict, eval_fo, eval_term, parse_valuation,
)
from .compiler import CompileError, CompiledRelation, compile_formula, compile_term
from .coding import (
    COMPACT, Coding, CodingError, CompactCoding, KINDS, PAPER, PaperCoding,
    SCHEMES, bits_to_code, canonical_build_code, canonical_formula_seq,
    canonical_term_seq, check_build_seq, code_to_bits, formula_seq_index,
    gamma_bits, get_scheme, quantifier_bound, seqdef, syn, syn_search, val,
)
from .numbers import LazyPow, magnitude_ge, magnitude_to_int, nthprime
from .satisfaction import (
    Counterexample, SatError, SatInstance, falsify, sat_valuation,
    sat_witness, satseq_check, triple_decode, triple_encode,
)
from .satpr import sat_as_pr, sat_pr_eval, sat_pr_parts

__version__ = "0.1.0"
