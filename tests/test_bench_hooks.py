"""The benchmark calls eaqeckit functions by name.

``bench/tracing.py`` lists the ones its tracer wraps in ``TARGETS``, and
``bench/workloads.py`` and ``bench/worker.py`` call others from their job
lists, set-up and job loop.  These tests load those files by path (they never
edit them) and check that every name still resolves, so deleting or renaming
one fails here instead of breaking ``bench/run.py``.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import eaqeckit
from eaqeckit import cli
from eaqeckit.gf import FieldSpec

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracing = load("tracing")
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


@pytest.mark.parametrize("workload", ["tables", "mds-scan", "large-field"])
def test_every_family_job_resolves(workload, tmp_path):
    jobs = load("workloads").make_jobs(workload, 1, tmp_path)
    names = {job.call[0] for job in jobs if job.kind == "family"}
    assert names
    assert all(callable(getattr(eaqeckit, name, None)) for name in names), names


def test_worker_entry_points_exist():
    # the set-up builds every field with these, and the job loop calls cli.main
    assert callable(FieldSpec.primitive_element)
    assert callable(FieldSpec.vec_ops)
    assert callable(cli.main)
