"""Power circuits: arithmetic on hugely compressed integers.

A power circuit stores an integer as a signed sum of nested powers of two,
so a tower 2^2^...^2 of height n needs only O(n) vertices.  The package
provides the compressed representation (circuit), signed-binary digit sums
(signed_binary), the cubic-time reduction to a sorted, duplicate-free form
and the unique normal form (reduction), arithmetic that works directly on
the compressed form (arithmetic), and a small term language with a
polynomial-time evaluator for quantifier-free formulas over
integers with +, -, x*2^y and comparison (termlang, cli).
"""

from .arithmetic import (
    DivMode,
    add,
    div_pow2,
    div_pow2_raw,
    exp2,
    mul_pow2,
    multiply,
    negate,
    subtract,
)
from .circuit import (
    BUDGET_EXCEEDED,
    IMPROPER,
    Certificate,
    CertificateError,
    CircuitError,
    CircuitInvariantError,
    CircuitKind,
    FrozenCircuitError,
    PowerCircuit,
    VariableCircuitError,
    canonical_bytes,
    eval_bignum,
    from_integer,
    from_json,
    from_json_dict,
    isomorphic,
    one_circuit,
    standardize,
    term_of,
    to_dot,
    to_json,
    to_json_dict,
    var_circuit,
    zero_circuit,
)
from .generators import blowup_product, chain_circuit, random_circuit, tower_circuit
from .reduction import (
    ReduceStats,
    compare_circuits,
    normalize,
    reduce,
    sign,
    verify_certificate,
)
from .signed_binary import (
    INT_KEYS,
    IntegerKeys,
    KeyDomain,
    SignedSum,
    compact_of_integer,
    compare,
    divisible_by_pow2,
    make_compact,
    reduce_sum,
    remove_superfluous,
    sum_sign,
    sum_value,
)
from .termlang import (
    CircuitBudgetError,
    ParseError,
    Undefined,
    eval_formula,
    parse,
    realize,
    tau,
)
from .terms import (
    Add,
    And,
    Atom,
    Const,
    DivPow2,
    Formula,
    Mul,
    MulPow2,
    Not,
    Or,
    Sub,
    Term,
    Var,
    formula_vars,
    pretty,
    pretty_formula,
    term_size,
    term_vars,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
