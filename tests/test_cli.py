import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from powmap.cli import main

GOLDEN_DIR = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTextCommands:
    def test_roots(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--t", "5", "--p", "61")
        assert code == 0 and out == "1 9 20 34 58\n"

    def test_roots_by_n(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--t", "5", "--n", "187")
        assert code == 0 and out == "1 69 86 103 137\n"

    def test_generators(self, capsys):
        code, out, _ = run_cli(capsys, "generators", "--t", "6", "--p", "43")
        assert code == 0 and out == "7 37\n"

    def test_params(self, capsys):
        code, out, _ = run_cli(capsys, "params", "--t", "5", "--n", "341")
        assert code == 0
        assert out == "t=5 n=341 phi=300 class=t_squared kind=semiprime p=11 q=31\n"

    def test_encrypt(self, capsys):
        code, out, _ = run_cli(capsys, "encrypt", "--t", "5", "--p", "61", "--m", "28")
        assert code == 0 and out == "11\n"

    def test_encode_emits_packet_line(self, capsys):
        code, out, _ = run_cli(capsys, "encode", "--t", "5", "--p", "61", "--m", "28")
        assert code == 0 and out == '{"t":5,"n":61,"c":11,"rank":3}\n'

    def test_decode(self, capsys):
        code, out, _ = run_cli(capsys, "decode", "--t", "5", "--n", "341", "--c", "87", "--rank", "5")
        assert code == 0 and out == "51\n"

    def test_decode_without_inverse_exponent(self, capsys):
        # gcd(phi/t, t) = 2 at (6, 13): the paper's exponent does not exist, decode still answers.
        code, out, err = run_cli(capsys, "decode", "--t", "6", "--p", "13", "--c", "12", "--rank", "1")
        assert (code, out, err) == (0, "2\n", "")

    def test_decode_at_largest_prime_below_2_32(self, capsys):
        # 1988663416 == pow(123456789, 5, 4294967291)
        code, out, _ = run_cli(capsys, "decode", "--t", "5", "--n", "4294967291", "--c", "1988663416", "--rank", "1")
        assert code == 0 and out == "123456789\n"

    def test_table_matches_golden_bytes(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--t", "5", "--p", "61", "--alpha", "9")
        assert code == 0
        assert out == (GOLDEN_DIR / "table_t5_p61_alpha9.txt").read_text()

    def test_table_default_alpha_is_smallest_eligible(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--t", "6", "--p", "43")
        assert code == 0
        assert out.splitlines()[0] == "1 7 6 42 36 37 1"

    def test_groups(self, capsys):
        code, out, _ = run_cli(capsys, "groups", "--t", "5", "--n", "341")
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "1 4 16 64 256"
        assert lines[6].startswith("multiplicity 1:")

    def test_matrix(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "--t", "6", "--p", "43")
        assert code == 0
        assert out == "1 7 6 42 36 37\nineligible: 1 6 36 42\n"

    def test_session_text(self, capsys):
        code, out, _ = run_cli(capsys, "session", "--t", "5", "--p", "61", "--m", "28")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "t=5 n=61 phi=60 class=t_exactly kind=prime"
        assert "alice rank = 3" in lines
        assert "bob decoded = 28" in lines
        assert lines[-1] == "match = true"

    @pytest.mark.parametrize("argv, expected", [
        # Factors 341 through the small-prime screen and joins the root sets in Garner's form.
        ("roots --t 5 --n 341",
         "1 4 16 47 64 70 78 97 125 126 157 159 163 188 190 202 218 221 225 256 280 287 295 311 312"),
        # Deep 2- and 3-Sylow subgroups (2**3 and 3**3 divide p-1), then 3**18 | p-1.
        ("decode --t 12 --p 4294964521 --c 149690263 --rank 3", "123456789"),
        ("decode --t 6 --p 3874204891 --c 405610211 --rank 1", "1000"),
        # 65497 * 65521: a balanced semiprime that only Pollard's rho splits, 144 candidates at t = 12.
        ("decode --t 12 --n 4291428937 --c 3888152046 --rank 7", "123456789"),
        # The same key's root set: 144 roots, each one pair of per-prime roots joined by Garner's form.
        ("roots --t 12 --n 4291428937", 144),
    ], ids=["roots-341", "decode-deep-2-3-sylow", "decode-deep-3-sylow", "decode-144-candidates",
            "roots-144"])
    def test_contract_corner_answers(self, capsys, argv, expected):
        """The line the command prints or, for an int, how many words it prints."""
        code, out, err = run_cli(capsys, *argv.split())
        assert (code, err) == (0, "")
        if isinstance(expected, int):
            assert len(out.split()) == expected
        else:
            assert out == expected + "\n"


class TestJsonCommands:
    def test_session_json_contains_exact_packet_line(self, capsys):
        code, out, _ = run_cli(capsys, "session", "--t", "6", "--p", "43", "--m", "2", "--format", "json")
        assert code == 0
        lines = out.splitlines()
        assert '{"t":6,"n":43,"c":21,"rank":1}' in lines
        for line in lines:
            json.loads(line)  # every line is one object
        outcome = json.loads(lines[-1])
        assert outcome == {"outcome": {"decoded": 2, "match": True}}

    def test_roots_json(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "--t", "5", "--p", "61", "--format", "json")
        obj = json.loads(out)
        assert obj["roots"] == [1, 9, 20, 34, 58]
        assert obj["orders"]["9"] == 5

    def test_decode_json(self, capsys):
        code, out, _ = run_cli(capsys, "decode", "--t", "5", "--n", "341", "--c", "87", "--rank", "5", "--format", "json")
        assert json.loads(out) == {"decoded": 51}


class TestDeterminism:
    def test_identical_invocations_identical_bytes(self, capsys):
        first = run_cli(capsys, "session", "--t", "6", "--p", "31", "--q", "13", "--m", "59", "--format", "json")
        second = run_cli(capsys, "session", "--t", "6", "--p", "31", "--q", "13", "--m", "59", "--format", "json")
        assert first == second


class TestErrorPaths:
    def test_domain_error_exit_1_with_name(self, capsys):
        code, out, err = run_cli(capsys, "decode", "--t", "5", "--n", "341", "--c", "87", "--rank", "0")
        assert code == 1 and out == ""
        assert err.startswith("FieldOutOfRange")

    def test_rank_beyond_candidates(self, capsys):
        code, _, err = run_cli(capsys, "decode", "--t", "5", "--n", "61", "--c", "11", "--rank", "6")
        assert code == 1 and err.startswith("RankOutOfRange")

    def test_not_coprime(self, capsys):
        code, _, err = run_cli(capsys, "encode", "--t", "5", "--n", "187", "--m", "11")
        assert code == 1 and err.startswith("NotCoprime")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_encrypt_non_unit_refused(self, capsys, fmt):
        code, out, err = run_cli(capsys, "encrypt", "--t", "2", "--n", "187", "--m", "11", "--format", fmt)
        assert (code, out, err) == (1, "", "NotCoprime: gcd(11, 187) > 1\n")

    def test_not_residue(self, capsys):
        code, out, err = run_cli(capsys, "decode", "--t", "5", "--p", "61", "--c", "2", "--rank", "1")
        assert code == 1 and out == ""
        assert err.startswith("NotResidue:")

    def test_invalid_prime(self, capsys):
        code, _, err = run_cli(capsys, "roots", "--t", "5", "--p", "15")
        assert code == 1 and err.startswith("InvalidPrime")

    def test_modulus_beyond_2_32_refused(self, capsys):
        # parse_packet refuses n >= 2**32, so encode must not emit such a packet.
        code, out, err = run_cli(capsys, "encode", "--t", "5", "--p", "65537", "--q", "65539", "--m", "2")
        assert code == 1 and out == ""
        assert err == "NotSupported: 4295229443 exceeds the 2**32 desk-scale bound\n"

    def test_exponent_beyond_12_refused(self, capsys):
        code, out, err = run_cli(capsys, "params", "--t", "13", "--p", "53")
        assert code == 1 and out == ""
        assert err == "InvalidArgument: t must be in 2..12, got 13\n"

    def test_bug_is_not_a_refusal(self, monkeypatch):
        # Only a PowmapError is a refusal; a bare ValueError from inside is a bug and escapes.
        def broken(*args):
            raise ValueError("bug")

        monkeypatch.setattr("powmap.transform.make_params", broken)
        with pytest.raises(ValueError, match="^bug$"):
            main(["params", "--t", "5", "--p", "61"])

    def test_table_without_generator(self, capsys):
        # 5 does not divide 43-1, so no root has order 5 and there is no default --alpha:
        # mapping_table refuses the key by its own rule, as for 5 | 101-1 with 25 | 101-1.
        for p in ("43", "101"):
            code, out, err = run_cli(capsys, "table", "--t", "5", "--p", p)
            assert code == 1 and out == ""
            assert err == ("InvalidArgument: mapping table needs a prime modulus"
                           " with phi divisible by t only\n")

    def test_table_ineligible_alpha_one_name(self, capsys):
        # A non-root, 0 mod p and a root of order 1 break one rule, so they share one name.
        for alpha in ("2", "61", "1"):
            code, out, err = run_cli(capsys, "table", "--t", "5", "--p", "61", "--alpha", alpha)
            assert code == 1 and out == ""
            assert err == f"IneligibleGenerator: {alpha} does not have order 5 mod 61\n"

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["roots", "--t", "5", "--p", "61", "--n", "61"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["roots", "--t", "5"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["roots", "--t", "5", "--p", "61", "--bogus"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


# Every subcommand in both formats on one key of each kind, then the domain
# errors of TestErrorPaths.  Usage and --help text are left out: argparse
# wraps them differently across Python versions.
GOLDEN_KEYS = (
    (("--t", "5", "--p", "61"), ("--c", "11", "--rank", "3")),
    (("--t", "6", "--n", "403"), ("--c", "233", "--rank", "3")),
    (("--t", "5", "--p", "11", "--q", "31"), ("--c", "98", "--rank", "3")),
)
GOLDEN_ERRORS = (
    ("decode", "--t", "5", "--n", "341", "--c", "87", "--rank", "0"),
    ("decode", "--t", "5", "--n", "61", "--c", "11", "--rank", "6"),
    ("encode", "--t", "5", "--n", "187", "--m", "11"),
    ("decode", "--t", "6", "--p", "13", "--c", "12", "--rank", "1"),  # no inverse exponent; decodes
    ("roots", "--t", "5", "--p", "15"),
    ("encode", "--t", "5", "--p", "65537", "--q", "65539", "--m", "2"),
    ("params", "--t", "13", "--p", "53"),
    ("table", "--t", "5", "--p", "43"),
)


def golden_invocations():
    for key, packet in GOLDEN_KEYS:
        for fmt in ("text", "json"):
            for command in ("params", "roots", "generators", "table", "encrypt", "encode",
                            "decode", "session", "groups", "matrix"):
                extra = {"encrypt": ("--m", "28"), "encode": ("--m", "28"),
                         "session": ("--m", "28"), "decode": packet}.get(command, ())
                yield (command, *key, *extra, "--format", fmt)
    for fmt in ("text", "json"):
        yield ("table", "--t", "5", "--p", "61", "--alpha", "9", "--format", fmt)
        for argv in GOLDEN_ERRORS:
            yield (*argv, "--format", fmt)


def render_invocation(argv, code, out, err):
    """One invocation as text: the command, its exit code, stdout lines
    prefixed '> ' and stderr lines prefixed '! '."""
    parts = [f"$ powmap {' '.join(argv)}\nexit {code}\n"]
    for prefix, stream in (("> ", out), ("! ", err)):
        parts += [prefix + line for line in stream.splitlines(keepends=True)]
    return "".join(parts)


def golden_transcript(capsys):
    return "".join(render_invocation(argv, *run_cli(capsys, *argv)) for argv in golden_invocations())


def test_golden_transcript(capsys):
    assert golden_transcript(capsys) == (GOLDEN_DIR / "cli_golden.txt").read_text()


def test_nothing_in_powmap_warns(capsys):
    # A warning turned into an error would escape main or change the transcript.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        transcript = golden_transcript(capsys)
    assert transcript == (GOLDEN_DIR / "cli_golden.txt").read_text()


class TestEntryPoint:
    """The real entry point, each run in a fresh interpreter."""

    @staticmethod
    def python(*args):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=60)

    def test_cli_import_loads_no_dataclasses_or_inspect(self):
        proc = self.python("-c", "import sys; before = set(sys.modules); import powmap.cli; "
                                 "print(' '.join(sorted(set(sys.modules) - before)))")
        assert proc.returncode == 0, proc.stderr
        added = set(proc.stdout.split())
        assert "powmap.cli" in added
        assert not added & {"dataclasses", "inspect"}

    def test_python_m_powmap_decode(self):
        proc = self.python("-m", "powmap", "decode", "--t", "5", "--n", "341", "--c", "87", "--rank", "5")
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "51\n", "")

    def test_python_m_powmap_refusal(self):
        proc = self.python("-m", "powmap", "encrypt", "--t", "2", "--n", "187", "--m", "11")
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", "NotCoprime: gcd(11, 187) > 1\n")
