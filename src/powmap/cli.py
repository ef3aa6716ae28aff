"""Command-line front end.

Each subcommand computes its records once and returns them as a pair
(objects, lines) of iterables: the JSON objects and the text lines.
``main`` alone reads ``--format`` and consumes only the iterable it
prints, one per line, so ``table``, which grows with p, builds only one
rendering.  Numbers print in decimal.  Exit codes: 0 on success, 2 on
usage errors, 1 on domain errors with the error name on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import groups as groups_mod
from . import modnum, protocol, roots, transform
from .errors import IneligibleGenerator, PowmapError


def _words(value) -> str:
    """A list or tuple as space-separated decimals; any other value as str()."""
    return " ".join(map(str, value)) if isinstance(value, (list, tuple)) else str(value)


def _resolve_params(args, parser: argparse.ArgumentParser) -> transform.Params:
    if args.n is not None:
        if args.p is not None or args.q is not None:
            parser.error("give either --n or --p/--q, not both")
        p, q = modnum.factor_semiprime(args.n)
    elif args.p is not None:
        p, q = args.p, args.q
    else:
        parser.error("one of --p or --n is required")
    return transform.make_params(args.t, p, q)


def _root_set(params: transform.Params) -> roots.RootSet:
    return roots.root_set(params.t, params.p, params.q)


def _cmd_params(args, params: transform.Params):
    obj = {"t": params.t, "n": params.n, "phi": params.phi, "class": params.div_class.value,
           "kind": "prime" if params.q is None else "semiprime", "p": params.p, "q": params.q}
    line = " ".join(f"{k}={v}" for k, v in obj.items() if v is not None)
    return [obj], [line]


def _cmd_roots(args, params: transform.Params):
    rs = _root_set(params)
    obj = {"modulus": rs.modulus, "t": rs.t, "roots": list(rs.roots),
           "orders": {str(r): d for r, d in rs.orders.items()}}
    return [obj], [_words(rs.roots)]


def _cmd_generators(args, params: transform.Params):
    gens = roots.eligible_generators(_root_set(params))
    return [{"generators": gens}], [_words(gens)]


def _cmd_table(args, params: transform.Params):
    alpha = args.alpha
    if alpha is None:
        gens = roots.eligible_generators(_root_set(params))
        if not gens:
            raise IneligibleGenerator(f"no root of order exactly {params.t} mod {params.n}")
        alpha = gens[0]
    rows = transform.mapping_table(params, alpha)
    objects = ({"row": list(row), "cipher": c} for row, c in rows)
    return objects, (f"{_words(row)} {c}" for row, c in rows)


def _cmd_encrypt(args, params: transform.Params):
    c = transform.encrypt(args.m, params)
    return [{"cipher": c}], [c]


def _cmd_encode(args, params: transform.Params):
    # The wire line in either format: serialize_packet writes the compact JSON of these int fields.
    pkt = transform.encode(args.m, params, _root_set(params))
    return [pkt._asdict()], [protocol.serialize_packet(pkt).rstrip("\n")]


def _cmd_decode(args, params: transform.Params):
    pkt = protocol.validate_packet_fields(params.t, params.n, args.c, args.rank)
    m = transform.decode(pkt, params, _root_set(params))
    return [{"decoded": m}], [m]


def _cmd_session(args, params: transform.Params):
    tr = protocol.run_session(params, args.m)
    alice, bob = dict(tr.alice_steps), dict(tr.bob_steps)
    objects = [
        {"setup": {"summary": tr.params_summary, "note": tr.setup_note, "roots": list(tr.root_set)}},
        {"alice": alice}, tr.packet._asdict(), {"bob": bob},
        {"outcome": {"decoded": tr.decoded, "match": tr.matched}},
    ]
    lines = [
        tr.params_summary, f"note: {tr.setup_note}", f"roots: {_words(tr.root_set)}",
        *(f"alice {label} = {_words(v)}" for label, v in alice.items()),
        f"alice sends = {tr.packet_line.strip()}",
        *(f"bob {label} = {_words(v)}" for label, v in bob.items()),
        f"match = {str(tr.matched).lower()}",
    ]
    return objects, lines


def _cmd_groups(args, params: transform.Params):
    gp = groups_mod.cyclic_groups(_root_set(params))
    report = groups_mod.multiplicity_report(gp)
    objects = [{"group": list(g)} for g in gp.groups]
    objects.append({"multiplicity": {str(k): v for k, v in report.items()}})
    lines = [_words(g) for g in gp.groups]
    lines += [f"multiplicity {k}: {_words(values)}" for k, values in report.items()]
    return objects, lines


def _cmd_matrix(args, params: transform.Params):
    matrix, ineligible = groups_mod.group_matrix(groups_mod.cyclic_groups(_root_set(params)))
    objects = [{"matrix": [list(r) for r in matrix], "ineligible": ineligible}]
    return objects, [*map(_words, matrix), f"ineligible: {_words(ineligible)}"]


_COMMON = (
    ("--t", dict(type=int, required=True, help="transformation exponent")),
    ("--p", dict(type=int, help="prime modulus, or first prime factor")),
    ("--q", dict(type=int, help="second prime factor")),
    ("--n", dict(type=int, help="modulus, factored automatically")),
    ("--format", dict(choices=("text", "json"), default="text")),
)
_M = (("--m", dict(type=int, required=True, help="message, 1 <= m < n")),)

# name: (handler, help, arguments beyond _COMMON)
_COMMANDS = {
    "params": (_cmd_params, "classify (t, modulus) and report the divisibility class", ()),
    "roots": (_cmd_roots, "list the t-th roots of unity", ()),
    "generators": (_cmd_generators, "list roots of order exactly t", ()),
    "table": (_cmd_table, "print the t-to-1 mapping table for a prime modulus",
              (("--alpha", dict(type=int, help="generator (default: smallest eligible)")),)),
    "encrypt": (_cmd_encrypt, "compute m**t mod n", _M),
    "encode": (_cmd_encode, "encrypt and emit the packet with rank side information", _M),
    "decode": (_cmd_decode, "recover the message from cipher and rank",
               (("--c", dict(type=int, required=True, help="cipher")),
                ("--rank", dict(type=int, required=True, help="1-indexed side information")))),
    "session": (_cmd_session, "run a full sender/receiver session", _M),
    "groups": (_cmd_groups, "partition the root set into power cycles", ()),
    "matrix": (_cmd_matrix, "group matrix and unusable initial values", ()),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powmap", description="Power-map cipher c = m**t mod n with rank side information")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, extra) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, kwargs in _COMMON + extra:
            sp.add_argument(flag, **kwargs)
        sp.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        objects, lines = args.func(args, _resolve_params(args, parser))
        if args.format == "json":
            lines = (json.dumps(obj, separators=(",", ":")) for obj in objects)
        for line in lines:
            print(line)
    except (PowmapError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
