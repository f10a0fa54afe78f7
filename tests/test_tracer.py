import importlib.util
from pathlib import Path

import bvpcont

# Traced names the library no longer has; their metrics read 0.
_DEAD = {"continuation.initial_tangent", "bifurcation.det_sign",
         "bifurcation.locate_bifurcation", "seeding.deepen_solution",
         "shooting.solve_ivp"}


def _traced():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TRACED


def _resolves(layer, attr):
    """Whether the benchmark tracer finds layer.attr to patch, as it looks."""
    home = getattr(bvpcont, layer)
    if "." in attr:  # a method
        cls_name, meth = attr.split(".")
        cls = getattr(home, cls_name, None)
        return cls is not None and vars(cls).get(meth) is not None
    return getattr(home, attr, None) is not None


def test_traced_names_stay_traced():
    # the tracer skips a name it cannot find, and its metric then silently
    # reads 0; only the known dead names may be missing
    traced = _traced()
    missing = {f"{layer}.{attr}" for layer, attr in traced
               if not _resolves(layer, attr)}
    assert missing == _DEAD
    assert len(traced) - len(missing) == 20
