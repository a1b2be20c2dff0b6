"""The benchmark's tracer wraps eaqeckit functions by name.

``bench/tracing.py`` lists them in ``TARGETS``; this test reads that file (it
never edits it) and checks that every name still resolves, so deleting or
renaming one fails here instead of breaking ``bench/run.py --trace 1``.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    missing = []
    for module, attr, _name in tracing.TARGETS:
        owner = importlib.import_module(f"eaqeckit.{module}")
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            # the tracer takes methods, classmethods included, from the
            # class's own __dict__
            raw = vars(getattr(owner, cls_name, object)).get(name)
            ok = callable(getattr(raw, "__func__", raw))
        else:
            ok = callable(getattr(owner, name, None))
        if not ok:
            missing.append(f"eaqeckit.{module}.{attr}")
    assert not missing, missing
