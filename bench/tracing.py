"""Spans around calls into the library's modules, recorded from outside.

The library is not edited.  A ``Tracer`` replaces module-level names (and
the two callables the library looks up on objects: ``PLMap2D.image_locator``
and each ``TutteSystem.solver``) with wrappers that record spans, and puts
the originals back when it is uninstalled.

A span is ``[name, start, end, parent, op, points]``.  Spans are recorded
only inside a root span (one optimizer step, or one query op), so work
outside the measured ops costs one branch per call.  Spans stay in memory
and are written once, at the end of the run.

A plain tracer (``layers=False``) records root spans only: the untraced
run uses it to time optimizer steps, which start at ``optim.unpack_params``
and end when ``optim.adam_step`` returns.
"""

from __future__ import annotations

import contextlib
import json
import time

from tuttedeform import checkpoint, deform, energy, grad, mesh2d, optim, prism, tutte

STEP = "optim.step"
OP = "query.op"

# Span name -> module attributes that are wrapped, and whether the span
# counts points (the second positional argument of every such call).  Each
# attribute is the name the callers look up at call time, so wrapping it
# catches every call made inside the library.
SPANS = {
    "deform.realize": ([(optim, "realize"), (checkpoint, "realize")], False),
    "mesh2d.build_mesh": ([(checkpoint, "build_mesh")], False),
    "tutte.solve_tutte_with_system": (
        [(deform, "solve_tutte_with_system"), (tutte, "solve_tutte_with_system")], False),
    "tutte.assemble_laplacian": ([(tutte, "assemble_laplacian")], False),
    "tutte.build_boundary": ([(tutte, "build_boundary")], False),
    "mesh2d.realize_plmap": ([(tutte, "realize_plmap")], False),
    "grad.evaluate_with_gradient": ([(optim, "evaluate_with_gradient")], False),
    "deform.forward_trace": ([(grad, "forward_trace")], True),
    "mesh2d.locate_points": ([(mesh2d, "locate_points")], True),
    "energy.strain_energy_density": (
        [(energy, "strain_energy_density"), (grad, "strain_energy_density"),
         (optim, "strain_energy_density")], False),
    "energy.layer_regularization": (
        [(energy, "layer_regularization"), (grad, "layer_regularization")], False),
    "checkpoint.load_checkpoint": ([(checkpoint, "load_checkpoint")], False),
    "deform.forward": ([(deform, "forward")], True),
    "deform.jacobians": ([(deform, "jacobians")], True),
    "deform.inverse": ([(deform, "inverse")], True),
    "prism.map_points": ([(prism, "map_points")], True),
    "prism.jacobians": ([(prism, "jacobians")], True),
    "prism.invert_points": ([(prism, "invert_points")], True),
    "mesh2d.locate_image_points": ([(mesh2d, "locate_image_points")], True),
    "mesh2d.image_locator": ([(mesh2d.PLMap2D, "image_locator")], False),
}
ADJOINT = "tutte.adjoint_solve"  # every call of a TutteSystem.solver


class Tracer:
    def __init__(self, layers: bool):
        self.layers = layers
        self.spans = []
        self.stack = []
        self.ops = 0
        self.steps_left = 0  # optimizer steps still to open as root spans
        self.t0 = time.perf_counter()
        self._saved = []

    # -- recording ------------------------------------------------------
    def open(self, name, points=0):
        parent = self.stack[-1] if self.stack else -1
        if parent < 0:
            self.ops += 1
        self.stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.ops, points])

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def abort(self):
        """Close every open span, after an op raised."""
        while self.stack:
            self.close()
        self.steps_left = 0

    @contextlib.contextmanager
    def root(self, name):
        self.open(name)
        try:
            yield
        finally:
            self.close()

    def roots_since(self, first):
        """Durations in seconds of the root spans recorded from index ``first``."""
        return [s[2] - s[1] for s in self.spans[first:] if s[3] < 0]

    # -- wrapping -------------------------------------------------------
    def _span(self, fn, name, counts_points):
        def traced(*args, **kwargs):
            if not self.stack:
                return fn(*args, **kwargs)
            self.open(name, len(args[1]) if counts_points else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
        return traced

    def _step_start(self, fn):
        def wrapped(*args, **kwargs):
            if self.steps_left > 0 and not self.stack:
                self.steps_left -= 1
                self.open(STEP)
            return fn(*args, **kwargs)
        return wrapped

    def _step_end(self, fn):
        inner = self._span(fn, "optim.adam_step", False) if self.layers else fn

        def wrapped(*args, **kwargs):
            out = inner(*args, **kwargs)
            if self.stack:
                self.close()
            return out
        return wrapped

    def _traced_solver(self, fn):
        def wrapped(*args, **kwargs):
            plmap, system = fn(*args, **kwargs)
            system.solver = self._span(system.solver, ADJOINT, False)
            return plmap, system
        return wrapped

    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        """Wrap the library's names for the duration of the block."""
        self._set(optim, "unpack_params", self._step_start(optim.unpack_params))
        self._set(optim, "adam_step", self._step_end(optim.adam_step))
        if self.layers:
            for name, (targets, counts_points) in SPANS.items():
                for owner, attr in targets:
                    fn = owner.__dict__[attr]
                    if name == "tutte.solve_tutte_with_system":
                        fn = self._traced_solver(fn)
                    self._set(owner, attr, self._span(fn, name, counts_points))
        try:
            yield self
        finally:
            while self._saved:
                owner, attr, fn = self._saved.pop()
                setattr(owner, attr, fn)

    # -- output ---------------------------------------------------------
    def write(self, path, header):
        """Write every span as one JSON line, times relative to tracer start."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for name, start, end, parent, op, points in self.spans:
                fh.write(json.dumps({"name": name, "start": start - self.t0,
                                     "end": end - self.t0, "parent": parent,
                                     "op": op, "points": points}) + "\n")


def summarize(spans):
    """Per-root totals of every span name: ms, self ms, calls and points.

    A span's self time is its duration minus the durations of its direct
    children; summed over all spans of one root it equals the root's
    duration, because single-threaded spans nest without overlap.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, op, points in spans:
        if parent >= 0:
            child[parent] += end - start
    roots = sum(1 for s in spans if s[3] < 0)
    out = {}
    for i, (name, start, end, parent, op, points) in enumerate(spans):
        t = out.setdefault(name, {"ms": 0.0, "self_ms": 0.0, "calls": 0, "points": 0})
        t["ms"] += 1e3 * (end - start)
        t["self_ms"] += 1e3 * (end - start - child[i])
        t["calls"] += 1
        t["points"] += points
    if roots:
        for t in out.values():
            for k in t:
                t[k] /= roots
    return roots, out
