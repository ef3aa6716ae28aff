"""The benchmark's tracer finds every function it names on the live powmap modules.

``bench/tracing.py`` leaves out the metrics of a traced name that powmap no
longer has, so a renamed or deleted function would silently drop entries the
benchmark declares.  This test reads ``TRACED`` from that file, by path and
without changing it, and resolves each name the way ``Tracer.install`` does,
without wrapping anything.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TRACED


def _resolves(mod, fn_name: str) -> bool:
    """A plain name is a callable attribute; ``Cls.meth`` is a classmethod in vars(Cls)."""
    if "." in fn_name:
        cls_name, meth = fn_name.split(".")
        cls = getattr(mod, cls_name, None)
        return isinstance(cls, type) and isinstance(vars(cls).get(meth), classmethod)
    return callable(getattr(mod, fn_name, None))


def test_every_traced_name_resolves():
    traced = _traced()
    assert "CrtBasis.for_primes" in traced["modnum"]
    missing = [f"{mod_name}.{fn}" for mod_name, fns in traced.items()
               for fn in fns if not _resolves(importlib.import_module(f"powmap.{mod_name}"), fn)]
    assert missing == []
