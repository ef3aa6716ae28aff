"""In-memory spans around powmap's public functions, and their arithmetic.

The tracer replaces module attributes (``powmap.transform.decode`` and so
on) with wrappers that record a span each: name, start, end, parent span
and the root span of the operation it belongs to.  Calls between powmap
modules go through those attributes, so nested calls nest as spans.  Spans
are folded into per-function totals whenever an operation ends and the
batch is large, and the first ``KEEP_SPANS`` are kept for writing out.
"""

from __future__ import annotations

import functools
import json
from collections import namedtuple
from time import perf_counter_ns

# Module -> public functions whose calls are recorded; each module is a layer.
TRACED = {
    "modnum": ("nth_root_mod_prime", "sqrtmod", "invmod", "is_prime", "CrtBasis.for_primes",
               "crt_pair", "element_order", "factor_semiprime"),
    "roots": ("root_set", "roots_bruteforce", "lift_roots", "eligible_generators"),
    "transform": ("make_params", "encode", "decode", "extract_root", "candidate_set",
                  "inverse_exponent", "mapping_table"),
    "protocol": ("parse_packet", "serialize_packet", "validate_packet_fields", "run_session"),
    "groups": ("cyclic_groups", "group_matrix", "multiplicity_report"),
    "cli": ("main",),
}
FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)
RATIOS = ("roots.scan_yield", "modnum.crt_basis_per_decode", "transform.decode.error_ratio")
KEEP_SPANS = 20_000  # spans written out at the end
FOLD_BATCH = 50_000  # spans held before they are folded into totals

Span = namedtuple("Span", "sid parent root name start end error")


def self_times(spans) -> dict[int, int]:
    """Self time of every span: its duration minus what its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once.
    """
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s.parent:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0, s.start
        for start, end in sorted(children.get(s.sid, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.sid] = s.end - s.start - covered
    return out


def fold(spans, totals: dict[str, list[int]]) -> None:
    """Add each span's call, self time and error to ``totals[name]``.

    ``totals["modnum.CrtBasis.for_primes@decode"]`` counts the CRT bases
    built while a decode was running.
    """
    selfs = self_times(spans)
    by_id = {s.sid: s for s in spans}
    for s in spans:
        row = totals.setdefault(s.name, [0, 0, 0])
        row[0] += 1
        row[1] += selfs[s.sid]
        row[2] += s.error
        if s.name == "modnum.CrtBasis.for_primes":
            up = by_id.get(s.parent)
            while up is not None and up.name != "transform.decode":
                up = by_id.get(up.parent)
            if up is not None:
                totals.setdefault(s.name + "@decode", [0, 0, 0])[0] += 1


class Tracer:
    """Records spans in memory; ``install`` wraps a freshly imported powmap."""

    def __init__(self):
        self.kept: list[Span] = []
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.next_sid = 1
        self.totals: dict[str, list[int]] = {}
        self.scanned = self.found = 0
        self.missing: list[str] = []  # traced names that powmap no longer has

    def install(self, mods) -> None:
        """Wrap every traced function of the imported modules; list the ones they lack.

        A missing function's metrics are left out rather than reported as
        zeros, which would read as a gain.  A module the workload does not
        import (cli, in process) reports zeros: nothing was called.
        """
        self.missing = []
        for mod_name, fns in TRACED.items():
            mod = getattr(mods, mod_name, None)
            for fn_name in fns if mod is not None else ():
                name = f"{mod_name}.{fn_name}"
                if "." in fn_name:
                    cls_name, meth = fn_name.split(".")
                    cls = getattr(mod, cls_name, None)
                    method = vars(cls).get(meth) if isinstance(cls, type) else None
                    if isinstance(method, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(name, method.__func__)))
                        continue
                elif callable(getattr(mod, fn_name, None)):
                    setattr(mod, fn_name, self.wrap(name, getattr(mod, fn_name)))
                    continue
                self.missing.append(name)

    def wrap(self, name: str, fn):
        tracer = self
        scan = name == "roots.roots_bruteforce"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, start = tracer.open()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                tracer.close(sid, name, start, 1)
                raise
            tracer.close(sid, name, start, 0)
            if scan:
                tracer.scanned += out.modulus - 1
                tracer.found += len(out.roots)
            return out

        return traced

    def open(self) -> tuple[int, int]:
        sid = self.next_sid
        self.next_sid += 1
        self.stack.append(sid)
        return sid, perf_counter_ns()

    def close(self, sid: int, name: str, start: int, error: int) -> None:
        end = perf_counter_ns()
        stack = self.stack
        stack.pop()
        parent = stack[-1] if stack else 0
        self.spans.append(Span(sid, parent, stack[0] if stack else sid, name, start, end, error))
        if not stack and len(self.spans) >= FOLD_BATCH:
            self.flush()

    def flush(self) -> None:
        if len(self.kept) < KEEP_SPANS:
            self.kept.extend(self.spans[: KEEP_SPANS - len(self.kept)])
        fold(self.spans, self.totals)
        self.spans = []

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics, averaged over ``rounds`` traced rounds.

        Metrics of missing functions, and ratios built on them, are left out.
        """
        self.flush()
        out = {}
        for name in FUNCTIONS:
            if name in self.missing:
                continue
            calls, self_ns, errors = self.totals.get(name, (0, 0, 0))
            out[f"{name}.calls"] = calls / rounds
            out[f"{name}.self_ms"] = self_ns / 1e6 / rounds
            out[f"{name}.errors"] = errors / rounds
        decodes, _, decode_errors = self.totals.get("transform.decode", (0, 0, 0))
        crt_in_decode = self.totals.get("modnum.CrtBasis.for_primes@decode", (0, 0, 0))[0]
        has = {name: name not in self.missing for name in FUNCTIONS}
        if has["roots.roots_bruteforce"]:
            # Roots found per residue scanned; 1.0 when nothing was scanned.
            out["roots.scan_yield"] = self.found / self.scanned if self.scanned else 1.0
        if has["transform.decode"] and has["modnum.CrtBasis.for_primes"]:
            out["modnum.crt_basis_per_decode"] = crt_in_decode / decodes if decodes else 0.0
        if has["transform.decode"]:
            out["transform.decode.error_ratio"] = decode_errors / decodes if decodes else 0.0
        return out

    def write(self, path) -> None:
        """Write the kept spans as JSON lines."""
        self.flush()
        with open(path, "w") as fh:
            for s in self.kept:
                fh.write(json.dumps(s._asdict(), separators=(",", ":")) + "\n")

