"""The package's top-level surface: what `powmap` exports, and what it leaves to `powmap.modnum`."""

import powmap
from powmap import modnum

PUBLIC = {
    # errors
    "FieldOutOfRange", "IneligibleGenerator", "InvalidPrime", "MalformedPacket", "NoSolution",
    "NotCoprime", "NotDivisor", "NotInvertible", "NotResidue", "NotSupported", "PowmapError",
    "RankOutOfRange",
    # roots
    "RootSet", "eligible_generators", "lift_roots", "quintic_roots_prime", "root_set",
    "roots_bruteforce", "sextic_roots_prime",
    # transform
    "DivClass", "Packet", "Params", "candidate_set", "decode", "encode", "encrypt",
    "extract_root", "inverse_exponent", "make_params", "mapping_table",
    # protocol
    "Transcript", "parse_packet", "run_session", "serialize_packet",
    # groups
    "GroupPartition", "cyclic_groups", "group_matrix", "multiplicity_report",
}
KERNEL = ("CrtBasis", "crt_pair", "element_order", "factor_semiprime", "invmod", "is_prime",
          "nth_root_mod_prime", "sqrtmod")


def test_all_is_the_agreed_surface():
    assert len(powmap.__all__) == len(PUBLIC) == 38
    assert set(powmap.__all__) == PUBLIC
    for name in PUBLIC:
        getattr(powmap, name)


def test_kernel_names_come_from_modnum():
    for name in KERNEL:
        assert callable(getattr(modnum, name)), name
        assert not hasattr(powmap, name), name


def test_formula_failure_is_gone():
    assert not hasattr(powmap, "FormulaFailure")
    assert not hasattr(powmap.errors, "FormulaFailure")


def test_warning_class_is_gone():
    assert not hasattr(powmap, "NotCoprimeWarning")
    assert not hasattr(powmap.errors, "NotCoprimeWarning")
