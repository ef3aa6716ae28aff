"""Many-to-one power-map transformations c = m**t mod n whose ambiguity is
resolved by rank side information.

The package covers root-of-unity construction (brute force, closed-form
radicals for degrees 5 and 6, CRT lifting), encryption and deterministic
t-th-root extraction, full encode/decode sessions over a one-line packet
format, and the cyclic-group decomposition of the root set.  The kernel
(CRT, primality, t-th roots mod a prime) is imported from powmap.modnum.
"""

from .errors import (
    FieldOutOfRange,
    IneligibleGenerator,
    InvalidArgument,
    InvalidPrime,
    MalformedPacket,
    NoSolution,
    NotCoprime,
    NotResidue,
    NotSupported,
    PowmapError,
    RankOutOfRange,
)
from .groups import GroupPartition, cyclic_groups, group_matrix, multiplicity_report
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
    "DivClass",
    "FieldOutOfRange",
    "GroupPartition",
    "IneligibleGenerator",
    "InvalidArgument",
    "InvalidPrime",
    "MalformedPacket",
    "NoSolution",
    "NotCoprime",
    "NotResidue",
    "NotSupported",
    "Packet",
    "Params",
    "PowmapError",
    "RankOutOfRange",
    "RootSet",
    "Transcript",
    "candidate_set",
    "cyclic_groups",
    "decode",
    "eligible_generators",
    "encode",
    "encrypt",
    "extract_root",
    "group_matrix",
    "inverse_exponent",
    "lift_roots",
    "make_params",
    "mapping_table",
    "multiplicity_report",
    "parse_packet",
    "quintic_roots_prime",
    "root_set",
    "roots_bruteforce",
    "run_session",
    "serialize_packet",
    "sextic_roots_prime",
]
