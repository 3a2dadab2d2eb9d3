"""Spans and counters around tsdyn's public functions, installed from outside.

The tracer replaces each target function by a wrapper in every loaded tsdyn
module that binds it (``tsdyn.solver.rhs_matrix`` and
``tsdyn.criteria.rhs_matrix`` are the same object), so calls between modules
are seen too.  Methods are patched on their class.  A span records
``(name, start, end, parent, request)``; spans stay in memory until the run
writes them out.  Per-scalar functions get a count-only wrapper, because a
span per call would cost more than the call.  A target the library no longer
defines is listed in :attr:`Tracer.absent`; its metrics read zero.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict

#: ``(module, attribute path, span name, count_only)``.  Several functions
#: may share one span name; their calls and self time add up.
TARGETS = (
    ("tsdyn.timescale", "TimeScale.__post_init__", "timescale.build", False),
    ("tsdyn.calculus", "GridFunction.__post_init__", "calculus.gridfunction", False),
    ("tsdyn.calculus", "delta_derivative", "calculus.delta_derivative", False),
    ("tsdyn.calculus", "delta_second", "calculus.delta_second", False),
    ("tsdyn.calculus", "delta_integral", "calculus.delta_integral", False),
    ("tsdyn.calculus", "sigma_shift", "calculus.sigma_shift", False),
    ("tsdyn.green", "green_matrix", "green.green_matrix", False),
    ("tsdyn.green", "green_apply", "green.green_apply", False),
    ("tsdyn.green", "affine_interpolant", "green.affine_interpolant", False),
    ("tsdyn.green", "envelope_weight", "green.envelope_weight", False),
    ("tsdyn.green", "green_value", "green.green_value", True),
    ("tsdyn.expressions", "parse_expression", "expressions.parse", False),
    ("tsdyn.expressions", "ExpressionTree.evaluate", "expressions.evaluate", True),
    ("tsdyn.model", "rhs_matrix", "model.rhs_matrix", False),
    ("tsdyn.solver", "solve", "solver.solve", False),
    ("tsdyn.solver", "apply_green_operator", "solver.apply_green_operator", False),
    ("tsdyn.solver", "regularized_rhs", "solver.regularized_rhs", False),
    ("tsdyn.solver", "residual_norm", "solver.residual_norm", False),
    ("tsdyn.solver", "clamp_to_band", "solver.clamp_to_band", False),
    ("tsdyn.solver", "_newton", "solver.newton", False),
    ("tsdyn.criteria", "construct_bounds", "criteria.construct_bounds", False),
    ("tsdyn.criteria", "construct_lower", "criteria.construct_lower", False),
    ("tsdyn.criteria", "verify_lower", "criteria.verify", False),
    ("tsdyn.criteria", "verify_upper", "criteria.verify", False),
    ("tsdyn.criteria", "criterion_sufficient", "criteria.family", False),
    ("tsdyn.criteria", "criterion_necessary", "criteria.family", False),
    ("tsdyn.criteria", "classify_weighted_bound", "criteria.family", False),
    ("tsdyn.criteria", "family_quadrature", "criteria.family", False),
    ("tsdyn.criteria", "compute_envelope", "criteria.compute_envelope", False),
    ("tsdyn.cli", "main", "cli.main", False),
)

_RHS = "model.rhs_matrix"
_SOLVE = "solver.solve"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.request = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        for module_name, path, name, count_only in TARGETS:
            owner = sys.modules.get(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = (self._counter(name, original) if count_only
                       else self._span(name, original))
            if outer:
                self._replace(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", "")
                if mod_name != "tsdyn" and not mod_name.startswith("tsdyn."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _replace(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _counter(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.request]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == _RHS:
                states = args[1] if len(args) > 1 else kwargs["states"]
                counts[f"{_RHS}.rows"] += int(states.shape[0])
                counts[f"{_RHS}.improper_drops"] += len(result[1])
            elif name == _SOLVE:
                counts["solver.iterations"] += int(result.iterations)
                counts["solver.converged"] += result.status.value == "converged"
            return result

        return wrapper

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict[str, float]:
        """Calls and self time per span name, plus the counters.

        Self time is a span's duration minus the durations of its direct
        children; the benchmark is single-threaded, so children never overlap.
        """
        out: dict[str, float] = defaultdict(float)
        for _, _, name, count_only in TARGETS:
            out[f"{name}.calls"] = 0
            if not count_only:
                out[f"{name}.s"] = 0.0
        for key in (f"{_RHS}.rows", f"{_RHS}.improper_drops", "solver.iterations",
                    "solver.converged"):
            out[key] = 0
        out.update(self.counts)
        child = [0.0] * len(self.spans)
        in_solve = [False] * len(self.spans)
        rhs_in_solve = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            inside = parent >= 0 and in_solve[parent]
            if parent >= 0:
                child[parent] += end - start
            rhs_in_solve += name == _RHS and inside
            in_solve[i] = inside or name == _SOLVE
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[f"{name}.calls"] += 1
            out[f"{name}.s"] += (end - start) - child[i]
        out["solver.rhs_in_solve"] = rhs_in_solve
        return out

    def write(self, path) -> None:
        """Write every span as one CSV row: name, start, end, parent, request."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,request\n")
            for name, start, end, parent, request in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{request}\n")
