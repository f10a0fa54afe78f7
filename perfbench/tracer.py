"""Span tracer for the traced benchmark pass.

The tracer replaces public bvpcont functions (and scipy's solve_ivp as the
shooting module sees it) with wrappers that record one span per call: the
function, start, end, the enclosing span and the op id.  Every module that
imported a function by name holds its own reference, so each reference is
patched, e.g. both ``continuation.bordered_solve`` and
``corrector.bordered_solve``.  Spans live in typed arrays in memory and are
written out once, at the end of the run.  ``restore()`` puts every original
back; the untraced passes never see a wrapper.
"""

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

# (layer, attribute) pairs; the layer is the bvpcont module that defines the
# name, or that imports it for shooting's solve_ivp.
TRACED = (
    ("weight", "eval_weight"),
    ("mesh", "mesh_spacings"),
    ("discretize", "residual"),
    ("discretize", "jacobian"),
    ("discretize", "principal_eigenvalue"),
    ("discretize", "BandedJacobian.dense"),
    ("corrector", "solve_tridiag"),
    ("corrector", "bordered_solve"),
    ("corrector", "newton_augmented"),
    ("corrector", "newton_fixed_lambda"),
    ("continuation", "continue_branch"),
    ("continuation", "initial_tangent"),
    ("continuation", "update_tangent"),
    ("bifurcation", "det_sign"),
    ("bifurcation", "locate_bifurcation"),
    ("bifurcation", "switch_branch"),
    ("bifurcation", "null_vector"),
    ("seeding", "find_new_solution"),
    ("seeding", "matches_branch"),
    ("seeding", "deepen_solution"),
    ("shooting", "shoot_count"),
    ("shooting", "solve_ivp"),
    ("diagram", "run_diagram"),
    ("diagram", "write_bundle"),
    ("diagram", "deep_census"),
)


class Tracer:
    """Records spans of the patched functions between patch() and restore()."""

    def __init__(self, package):
        self.package = package
        self.names = [f"{layer}.{attr}" for layer, attr in TRACED]
        self.fn = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.raised = array("b")
        self.op_id = -1
        # Counts that need a return value or an argument, keyed by name.
        self.counts = {"continuation.points": 0, "seeding.found": 0,
                       "shooting.shots": 0}
        self._stack = [-1]
        self._undo = []

    # -- patching ---------------------------------------------------------

    def _wrap(self, fid, orig, after=None):
        fn, start, end, parent, op, raised = (
            self.fn, self.start, self.end, self.parent, self.op, self.raised)
        stack = self._stack
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1])
            op.append(tracer.op_id)
            raised.append(0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            start.append(t0)
            try:
                out = orig(*args, **kwargs)
            except BaseException:
                raised[idx] = 1
                raise
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, out)
            return out
        return wrapper

    def _after(self, name):
        counts = self.counts
        if name == "continuation.continue_branch":
            def after(args, out):
                counts["continuation.points"] += len(out.points) - 1
        elif name == "seeding.find_new_solution":
            def after(args, out):
                counts["seeding.found"] += out is not None
        elif name == "shooting.solve_ivp":
            # One shot integrates piece by piece from x = 0.
            def after(args, out):
                counts["shooting.shots"] += float(args[1][0]) == 0.0
        else:
            after = None
        return after

    def patch(self):
        pkg = self.package
        modules = [m for k, m in sys.modules.items()
                   if m is not None and (k == pkg.__name__
                                         or k.startswith(pkg.__name__ + "."))]
        # A name that the library no longer has stays unpatched and reads
        # 0 calls, so the benchmark outlives the code paths it measures.
        for fid, (layer, attr) in enumerate(TRACED):
            home = getattr(pkg, layer)
            name = self.names[fid]
            if "." in attr:  # a method
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                orig = vars(cls).get(meth) if cls is not None else None
                if orig is not None:
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(fid, orig, self._after(name)))
                continue
            orig = getattr(home, attr, None)
            if orig is None:
                continue
            wrapper = self._wrap(fid, orig, self._after(name))
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def restore(self):
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo.clear()

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        return {
            "fn": np.frombuffer(self.fn, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self, passes):
        """Per-layer figures per traced pass, derived from the spans."""
        a = self.arrays()
        fid, parent = a["fn"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        ids = {name: i for i, name in enumerate(self.names)}
        parent_fid = np.where(has_parent, fid[np.maximum(parent, 0)], -1)

        def stats(name):
            sel = fid == ids[name]
            calls = int(sel.sum())
            s = float(dur[sel].sum())
            return {"calls": calls / passes, "s": s / passes,
                    "self_s": float(self_t[sel].sum()) / passes,
                    "us_per_call": 1e6 * s / calls if calls else 0.0,
                    "failures": int(a["raised"][sel].sum()) / passes}

        def nested(child_name, parent_name):
            return int(np.sum((fid == ids[child_name])
                              & (parent_fid == ids[parent_name]))) / passes

        st = {name: stats(name) for name in self.names}
        out = {}

        def put(name, keys):
            for k in keys:
                out[f"{name}.{k}"] = st[name][k]

        full = ("calls", "s", "self_s", "us_per_call")
        put("weight.eval_weight", ("calls", "s"))
        put("mesh.mesh_spacings", ("calls", "s"))
        put("discretize.residual", full)
        put("discretize.jacobian", full)
        put("discretize.BandedJacobian.dense", ("calls",))
        put("corrector.solve_tridiag", full)
        put("corrector.bordered_solve", full)
        for newton in ("corrector.newton_augmented",
                       "corrector.newton_fixed_lambda"):
            put(newton, ("calls", "s", "failures"))
            # One Jacobian assembly per Newton iteration.
            out[f"{newton}.iters"] = nested("discretize.jacobian", newton)
        put("continuation.continue_branch", full)
        points = self.counts["continuation.points"] / passes
        out["continuation.points"] = points
        cb_s = st["continuation.continue_branch"]["s"]
        out["continuation.step_s"] = cb_s / points if points else 0.0
        tried = nested("corrector.newton_augmented",
                       "continuation.continue_branch")
        out["continuation.accept_ratio"] = points / tried if tried else 0.0
        put("continuation.update_tangent", full)
        put("continuation.initial_tangent", ("calls", "s"))
        put("bifurcation.det_sign", full)
        put("bifurcation.locate_bifurcation", ("calls", "s", "failures"))
        put("bifurcation.switch_branch", full)
        put("bifurcation.null_vector", full)
        put("seeding.find_new_solution", ("calls", "s"))
        out["seeding.find_new_solution.found"] = (
            self.counts["seeding.found"] / passes)
        put("seeding.matches_branch", full)
        put("seeding.deepen_solution", full)
        put("shooting.shoot_count", full)
        put("shooting.solve_ivp", ("calls", "s", "us_per_call"))
        shots = self.counts["shooting.shots"] / passes
        out["shooting.shots"] = shots
        out["shooting.shot_us"] = (
            1e6 * st["shooting.shoot_count"]["s"] / shots if shots else 0.0)
        out["diagram.run_diagram.self_s"] = st["diagram.run_diagram"]["self_s"]
        out["diagram.write_bundle.s"] = st["diagram.write_bundle"]["s"]
        out["diagram.deep_census.self_s"] = st["diagram.deep_census"]["self_s"]
        out["discretize.principal_eigenvalue.s"] = (
            st["discretize.principal_eigenvalue"]["s"])
        return out
