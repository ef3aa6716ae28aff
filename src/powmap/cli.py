"""Command-line front end.

Every command prints deterministically: decimal numbers, space-separated
in text mode, one JSON object per line in json mode.  Exit codes: 0 on
success, 2 on usage errors, 1 on domain errors with the error name on
stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import groups as groups_mod
from . import modnum, protocol, roots, transform
from .errors import IneligibleGenerator, PowmapError


def _jline(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--t", type=int, required=True, help="transformation exponent")
    sp.add_argument("--p", type=int, help="prime modulus, or first prime factor")
    sp.add_argument("--q", type=int, help="second prime factor")
    sp.add_argument("--n", type=int, help="modulus, factored automatically")
    sp.add_argument("--format", choices=("text", "json"), default="text")


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


def _cmd_params(args, params: transform.Params) -> None:
    kind = "prime" if params.q is None else "semiprime"
    if args.format == "json":
        print(_jline({
            "t": params.t, "n": params.n, "phi": params.phi,
            "class": params.div_class.value, "kind": kind,
            "p": params.p, "q": params.q,
        }))
    else:
        line = f"t={params.t} n={params.n} phi={params.phi} class={params.div_class.value} kind={kind} p={params.p}"
        if params.q is not None:
            line += f" q={params.q}"
        print(line)


def _cmd_roots(args, params: transform.Params) -> None:
    rs = _root_set(params)
    if args.format == "json":
        print(_jline({
            "modulus": rs.modulus, "t": rs.t, "roots": list(rs.roots),
            "orders": {str(r): d for r, d in rs.orders.items()},
        }))
    else:
        print(" ".join(str(r) for r in rs.roots))


def _cmd_generators(args, params: transform.Params) -> None:
    gens = roots.eligible_generators(_root_set(params))
    if args.format == "json":
        print(_jline({"generators": gens}))
    else:
        print(" ".join(str(g) for g in gens))


def _cmd_table(args, params: transform.Params) -> None:
    alpha = args.alpha
    if alpha is None:
        gens = roots.eligible_generators(_root_set(params))
        if not gens:
            raise IneligibleGenerator(f"no root of order exactly {params.t} mod {params.n}")
        alpha = gens[0]
    rows = transform.mapping_table(params, alpha)
    for row, c in rows:
        if args.format == "json":
            print(_jline({"row": list(row), "cipher": c}))
        else:
            print(" ".join(str(v) for v in row) + f" {c}")


def _cmd_encrypt(args, params: transform.Params) -> None:
    c = transform.encrypt(args.m, params)
    print(_jline({"cipher": c}) if args.format == "json" else c)


def _cmd_encode(args, params: transform.Params) -> None:
    pkt = transform.encode(args.m, params, _root_set(params))
    sys.stdout.write(protocol.serialize_packet(pkt))


def _cmd_decode(args, params: transform.Params) -> None:
    pkt = protocol.validate_packet_fields(params.t, params.n, args.c, args.rank)
    m = transform.decode(pkt, params, _root_set(params))
    print(_jline({"decoded": m}) if args.format == "json" else m)


def _cmd_session(args, params: transform.Params) -> None:
    tr = protocol.run_session(params, args.m)
    if args.format == "json":
        print(_jline({"setup": {
            "summary": tr.params_summary, "note": tr.setup_note,
            "roots": list(tr.root_set),
        }}))
        print(_jline({"alice": {label: value for label, value in tr.alice_steps}}))
        sys.stdout.write(tr.packet_line)
        print(_jline({"bob": {label: value for label, value in tr.bob_steps}}))
        print(_jline({"outcome": {"decoded": tr.decoded, "match": tr.matched}}))
    else:
        print(tr.params_summary)
        print(f"note: {tr.setup_note}")
        print("roots: " + " ".join(str(r) for r in tr.root_set))
        for label, value in tr.alice_steps:
            print(f"alice {label} = {_fmt(value)}")
        print(f"alice sends = {tr.packet_line.strip()}")
        for label, value in tr.bob_steps:
            print(f"bob {label} = {_fmt(value)}")
        print(f"match = {str(tr.matched).lower()}")


def _fmt(value) -> str:
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


def _cmd_groups(args, params: transform.Params) -> None:
    gp = groups_mod.cyclic_groups(_root_set(params))
    report = groups_mod.multiplicity_report(gp)
    if args.format == "json":
        for g in gp.groups:
            print(_jline({"group": list(g)}))
        print(_jline({"multiplicity": {str(k): v for k, v in report.items()}}))
    else:
        for g in gp.groups:
            print(" ".join(str(v) for v in g))
        for k, values in report.items():
            print(f"multiplicity {k}: " + " ".join(str(v) for v in values))


def _cmd_matrix(args, params: transform.Params) -> None:
    matrix, ineligible = groups_mod.group_matrix(groups_mod.cyclic_groups(_root_set(params)))
    if args.format == "json":
        print(_jline({"matrix": [list(r) for r in matrix], "ineligible": ineligible}))
    else:
        for row in matrix:
            print(" ".join(str(v) for v in row))
        print("ineligible: " + " ".join(str(v) for v in ineligible))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powmap",
        description="Power-map cipher c = m**t mod n with rank side information",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    handlers = {
        "params": (_cmd_params, "classify (t, modulus) and report the divisibility class"),
        "roots": (_cmd_roots, "list the t-th roots of unity"),
        "generators": (_cmd_generators, "list roots of order exactly t"),
        "table": (_cmd_table, "print the t-to-1 mapping table for a prime modulus"),
        "encrypt": (_cmd_encrypt, "compute m**t mod n"),
        "encode": (_cmd_encode, "encrypt and emit the packet with rank side information"),
        "decode": (_cmd_decode, "recover the message from cipher and rank"),
        "session": (_cmd_session, "run a full sender/receiver session"),
        "groups": (_cmd_groups, "partition the root set into power cycles"),
        "matrix": (_cmd_matrix, "group matrix and unusable initial values"),
    }
    for name, (func, help_text) in handlers.items():
        sp = sub.add_parser(name, help=help_text)
        _add_common(sp)
        if name in ("encrypt", "encode", "session"):
            sp.add_argument("--m", type=int, required=True, help="message, 1 <= m < n")
        if name == "decode":
            sp.add_argument("--c", type=int, required=True, help="cipher")
            sp.add_argument("--rank", type=int, required=True, help="1-indexed side information")
        if name == "table":
            sp.add_argument("--alpha", type=int, help="generator (default: smallest eligible)")
        sp.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args, _resolve_params(args, parser))
    except (PowmapError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
