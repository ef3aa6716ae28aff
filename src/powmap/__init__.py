"""Many-to-one power-map transformations c = m**t mod n whose ambiguity is
resolved by rank side information.

The package covers root-of-unity construction (brute force, closed-form
radicals for degrees 5 and 6, CRT lifting), encryption and deterministic
t-th-root extraction, full encode/decode sessions over a one-line packet
format, and the cyclic-group decomposition of the root set.
"""

from .errors import (
    FieldOutOfRange,
    FormulaFailure,
    IneligibleGenerator,
    InvalidPrime,
    MalformedPacket,
    NoSolution,
    NotCoprime,
    NotCoprimeWarning,
    NotDivisor,
    NotInvertible,
    NotResidue,
    NotSupported,
    PowmapError,
    RankOutOfRange,
)
from .groups import GroupPartition, cyclic_groups, group_matrix, multiplicity_report
from .modnum import (
    CrtBasis,
    crt_pair,
    element_order,
    factor_semiprime,
    invmod,
    is_prime,
    nth_root_mod_prime,
    sqrtmod,
)
from .protocol import Transcript, parse_packet, run_session, serialize_packet
from .roots import (
    RootSet,
    eligible_generators,
    lift_roots,
    quintic_roots_prime,
    root_set,
    roots_bruteforce,
    sextic_roots_prime,
)
from .transform import (
    DivClass,
    Packet,
    Params,
    candidate_set,
    decode,
    encode,
    encrypt,
    extract_root,
    inverse_exponent,
    make_params,
    mapping_table,
)

__version__ = "0.1.0"

__all__ = [
    "CrtBasis",
    "DivClass",
    "FieldOutOfRange",
    "FormulaFailure",
    "GroupPartition",
    "IneligibleGenerator",
    "InvalidPrime",
    "MalformedPacket",
    "NoSolution",
    "NotCoprime",
    "NotCoprimeWarning",
    "NotDivisor",
    "NotInvertible",
    "NotResidue",
    "NotSupported",
    "Packet",
    "Params",
    "PowmapError",
    "RankOutOfRange",
    "RootSet",
    "Transcript",
    "candidate_set",
    "crt_pair",
    "cyclic_groups",
    "decode",
    "element_order",
    "eligible_generators",
    "encode",
    "encrypt",
    "extract_root",
    "factor_semiprime",
    "group_matrix",
    "invmod",
    "inverse_exponent",
    "is_prime",
    "lift_roots",
    "make_params",
    "mapping_table",
    "multiplicity_report",
    "nth_root_mod_prime",
    "parse_packet",
    "quintic_roots_prime",
    "root_set",
    "roots_bruteforce",
    "run_session",
    "serialize_packet",
    "sextic_roots_prime",
    "sqrtmod",
]
