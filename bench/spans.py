"""Spans for the traced run: wrappers installed on public functions of the
program's modules, records kept in memory, and the self-time arithmetic.

A span is one call of a wrapped function: ``(name index, parent span index,
start, end, value)``.  ``value`` is a number read from the call's arguments
or returned object (bytes written, solver iterations, points traced) or
None.  The parent is the innermost wrapped call still running, so the spans
of one process form a forest in call order.  Self time is a span's duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path


def _bytes_written(args, kwargs, result):
    return len(args[1].encode())


def _iterations(args, kwargs, result):
    return max(int(result.iterations), 0)


def _points(args, kwargs, result):
    return len(result["points"])


# (span name, module, attribute; dotted for methods and constructors,
#  value reader or None).  Classes are spanned through their constructor.
# ``eos`` has no span: its functions run once per ODE step, so a wrapper
# would cost more than the call.
TARGETS = (
    ("cli.load_config", "rotstar.cli", "load_config", None),
    ("cli.write", "rotstar.cli", "_write_atomic", _bytes_written),
    ("radial.solve_lane_emden", "rotstar.radial", "solve_lane_emden", None),
    ("grids.AxiGrid.build", "rotstar.grids", "AxiGrid.build", None),
    ("grids.interp_matrix", "rotstar.grids", "interp_matrix", None),
    ("grids.potential_modes_from_gauss", "rotstar.grids",
     "AxiGrid.potential_modes_from_gauss", None),
    ("potential.potential_direct", "rotstar.potential", "potential_direct", None),
    ("potential.potential_multipole", "rotstar.potential", "potential_multipole", None),
    ("rotation.centrifugal_from_omega", "rotstar.rotation", "centrifugal_from_omega", None),
    ("rotation.mass_within_cylinder", "rotstar.rotation", "mass_within_cylinder", None),
    ("rotation.CylinderRule", "rotstar.rotation", "CylinderRule.__init__", None),
    ("rotation.centrifugal_from_momentum", "rotstar.rotation",
     "centrifugal_from_momentum", None),
    ("rotation.LinearizedCentrifugal", "rotstar.rotation",
     "LinearizedCentrifugal.__init__", None),
    ("equilibrium.solve_equilibrium", "rotstar.equilibrium", "solve_equilibrium",
     _iterations),
    ("equilibrium.ConstantRotationFamily.solve_at", "rotstar.equilibrium",
     "ConstantRotationFamily.solve_at", None),
    ("equilibrium.gravity_modes", "rotstar.equilibrium", "gravity_modes", None),
    ("equilibrium.gravity_jacobian_packed", "rotstar.equilibrium",
     "gravity_jacobian_packed", None),
    ("equilibrium.lu_factor", "rotstar.equilibrium", "lu_factor", None),
    ("equilibrium.centrifugal_deriv_matrix", "rotstar.equilibrium",
     "centrifugal_deriv_matrix", None),
    ("equilibrium.hl_certificate", "rotstar.equilibrium", "hl_certificate", None),
    ("equilibrium.hl_certificate_blocks", "rotstar.equilibrium",
     "hl_certificate_blocks", None),
    ("equilibrium.free_boundary", "rotstar.equilibrium", "free_boundary", None),
    ("equilibrium.check_admissibility", "rotstar.equilibrium", "check_admissibility",
     None),
    ("perturb.solve_mode", "rotstar.perturb", "solve_mode", _iterations),
    ("perturb.mode_shooting", "rotstar.perturb", "mode_shooting", None),
    ("perturb.compute_h_field", "rotstar.perturb", "compute_h_field", None),
    ("mass.trace_constant_mass_curve", "rotstar.mass", "trace_constant_mass_curve",
     _points),
    ("mass.central_density_from_mass", "rotstar.mass", "central_density_from_mass",
     None),
    ("mass.total_mass_dimensionless", "rotstar.mass", "total_mass_dimensionless", None),
)

SPAN_NAMES = tuple(t[0] for t in TARGETS)


class Recorder:
    """In-memory span store of one process."""

    def __init__(self, names):
        self.names = list(names)
        self.spans: list = []
        self.stack: list[int] = []
        # span name -> module namespaces (or class) where a wrapper went in
        self.patched: dict[str, list[str]] = {}

    def wrap(self, index: int, fn, value_of):
        spans, stack = self.spans, self.stack
        missing = object()

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            result = missing
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                value = None
                if value_of is not None and result is not missing:
                    value = value_of(args, kwargs, result)
                spans[me] = (index, parent, start, end, value)

        return traced

    def dump(self, path) -> None:
        doc = {"names": self.names, "spans": self.spans}
        Path(path).write_text(json.dumps(doc, separators=(",", ":")))


def install(targets=TARGETS) -> Recorder:
    """Wrap every target in every rotstar namespace that holds it.

    A function imported by name into several modules (``interp_matrix`` in
    grids, rotation and perturb) is replaced in each of them; methods and
    constructors are replaced once, on their class.
    """
    import rotstar.cli  # noqa: F401  (imports every module of the package)

    modules = [m for name, m in sorted(sys.modules.items())
               if name == "rotstar" or name.startswith("rotstar.")]
    rec = Recorder(t[0] for t in targets)
    for index, (span, module_name, attr, value_of) in enumerate(targets):
        module = sys.modules[module_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(rec.wrap(index, raw.__func__, value_of)))
            else:
                setattr(cls, meth, rec.wrap(index, raw, value_of))
            rec.patched[span] = [f"{module_name}.{cls_name}"]
            continue
        original = getattr(module, attr)
        wrapped = rec.wrap(index, original, value_of)
        rec.patched[span] = []
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
                    rec.patched[span].append(mod.__name__)
    return rec


# ---------------------------------------------------------------------------
# aggregation (harness side)


def self_times(spans) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [end - start for (_, _, start, end, _) in spans]
    for (_, parent, start, end, _) in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _has_ancestor(spans, i: int, wanted: set[int]) -> bool:
    parent = spans[i][1]
    while parent >= 0:
        if spans[parent][0] in wanted:
            return True
        parent = spans[parent][1]
    return False


class LayerTotals:
    """Span totals summed over the processes of a traced pass."""

    def __init__(self):
        self.calls = {name: 0 for name in SPAN_NAMES}
        self.self_s = {name: 0.0 for name in SPAN_NAMES}
        self.values = {name: 0 for name in SPAN_NAMES}
        self.solve_jacobians = 0   # Jacobian builds inside a solve, certificate excluded
        self.curve_solves = 0      # equilibrium solves inside a mass curve

    def add(self, names: list[str], spans: list) -> None:
        idx = {name: k for k, name in enumerate(names)}
        selfs = self_times(spans)
        for i, (k, _, _, _, value) in enumerate(spans):
            name = names[k]
            self.calls[name] += 1
            self.self_s[name] += selfs[i]
            if value is not None:
                self.values[name] += value
        solve = {idx["equilibrium.solve_equilibrium"]}
        cert = {idx["equilibrium.hl_certificate"]}
        curve = {idx["mass.trace_constant_mass_curve"]}
        jac = idx["equilibrium.gravity_jacobian_packed"]
        for i, span in enumerate(spans):
            if span[0] == jac and _has_ancestor(spans, i, solve) \
                    and not _has_ancestor(spans, i, cert):
                self.solve_jacobians += 1
            elif span[0] in solve and _has_ancestor(spans, i, curve):
                self.curve_solves += 1

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = (self.calls[name], "count")
            out[f"{name}.self_s"] = (self.self_s[name], "s")
        out["cli.write.bytes"] = (self.values["cli.write"], "bytes")

        def ratio(num, den):
            return num / den if den else 0.0

        solves = self.calls["equilibrium.solve_equilibrium"]
        out["equilibrium.iterations_per_solve"] = (
            ratio(self.values["equilibrium.solve_equilibrium"], solves), "1/solve")
        out["equilibrium.jacobian_builds_per_solve"] = (
            ratio(self.solve_jacobians, solves), "1/solve")
        out["perturb.iterations_per_mode"] = (
            ratio(self.values["perturb.solve_mode"], self.calls["perturb.solve_mode"]),
            "1/mode")
        out["mass.solves_per_point"] = (
            ratio(self.curve_solves, self.values["mass.trace_constant_mass_curve"]),
            "1/point")
        return out
