"""The package's top-level surface: what `powmap` exports, and what it leaves to `powmap.modnum`."""

import ast
from pathlib import Path

import powmap
from powmap import modnum

PUBLIC = {
    # errors
    "FieldOutOfRange", "IneligibleGenerator", "InvalidArgument", "InvalidPrime", "MalformedPacket",
    "NoSolution", "NotCoprime", "NotResidue", "NotSupported",
    "PowmapError", "RankOutOfRange",
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
    assert len(powmap.__all__) == len(PUBLIC) == 37
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


def test_duplicate_refusal_classes_are_gone():
    # A non-unit to invert is NotCoprime; a non-root given to element_order is InvalidArgument.
    for name in ("NotInvertible", "NotDivisor"):
        assert not hasattr(powmap, name), name
        assert not hasattr(powmap.errors, name), name


def test_every_refusal_is_a_powmap_error():
    # Refusals raise InvalidArgument, which is also a ValueError for callers that catch that.
    assert issubclass(powmap.InvalidArgument, powmap.PowmapError)
    assert issubclass(powmap.InvalidArgument, ValueError)
    bare = []
    for path in sorted(Path(powmap.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_bytes(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:  # raise X(...) or raise X
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    bare.append(f"{path.name}:{node.lineno}")
    assert bare == []
