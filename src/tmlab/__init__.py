"""Desk-scale computability workbench: machines, codes, clocks, hierarchies."""

from .words import index_word, pair, proj1, proj2, unpair, word_index
from .machines import (
    Halted,
    InvalidTable,
    MachineTable,
    OutOfFuel,
    Rule,
    format_tm_text,
    parse_tm_text,
    run,
    trivial_machine,
)
from .ordinals import (
    NotLimit,
    OrdinalCNF,
    ParseError,
    clock_index_ordinal,
    fundamental_sequence,
    ord_add,
    ord_compare,
    ord_format,
    ord_parse,
)
from .hierarchy import (
    UNKNOWN,
    Overflow,
    Value,
    FailsAt,
    Holds,
    Unknown,
    dominates_on_window,
    fgh_at_least,
    fgh_eval,
    parse_fn_descriptor,
)
from .clocks import (
    BudgetExceeded,
    ClockedMachine,
    Parametrized,
    PlainPoly,
    clock_bound,
    clocked_run,
    compose,
    format_clock,
    parse_clock,
)
from .codec import (
    ClockedTable,
    InvalidPair,
    clock_index,
    decode_index,
    encode_table,
    family_index,
    is_sigma_image,
    sigma_embed,
)
from .sat import (
    CnfFormula,
    Exhausted,
    Found,
    Indeterminate,
    MalformedCnf,
    decode_cnf,
    encode_cnf,
    f_neg_A,
    f_prime,
    parse_dimacs,
    solve_E,
    verify,
)
from .families import (
    PeakResult,
    QSpec,
    StrideReport,
    build_Q,
    build_q_table,
    clock_stride_analysis,
    peak_probe,
    stride_analysis,
)
from .registry import FRegistry, register, registered

__version__ = "0.1.0"
