"""Spans around the public functions through which stfem's modules call each
other, and the per-layer metrics derived from them.

Callers inside stfem look their callees up as module attributes (for example
``adaptive_loop`` calls ``stfem.adaptivity.newton_solve``), so replacing
those attributes from outside records every call without editing the
library.  :class:`Patches` puts every replaced attribute back.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

from stfem import adaptivity, dwr, io, solvers
from stfem.quadrature import simplex_rule
from stfem.solvers import Ilu0
from stfem.spaces import FeSpace


class Patches:
    """Replaces attributes of modules, classes or instances; ``restore``
    puts the originals back in reverse order."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory span recorder.

    A span is ``[name, start, end, parent, counts]``; its id is its index in
    ``spans`` and ``parent`` is the id of the enclosing span (-1 at the top).
    ``counts`` holds what the span's call did, taken from its arguments and
    result after the span ends.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self._stack = []

    def wrap(self, fn, name: str, count=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, perf_counter(), 0.0, parent, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, out)
            return out

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for i, (name, start, end, parent, counts) in enumerate(self.spans):
                f.write(json.dumps({"run": self.run_id, "id": i, "name": name,
                                    "start": start, "end": end,
                                    "parent": parent, "counts": counts})
                        + "\n")


# -- what each wrapped call did ----------------------------------------------

def _order(space, args, kwargs):
    order = args[3] if len(args) > 3 else kwargs.get("order")
    return space.default_order() if order is None else order


def _quad_points(args, kwargs, _out):
    """Element x quadrature points of an assembly call."""
    space = args[0]
    nq = len(simplex_rule(space.mesh.dim, _order(space, args, kwargs)).weights)
    return {"qp": space.mesh.n_elements * nq}


def _jacobian_counts(args, kwargs, out):
    """Quadrature points, and bytes computed from the sizes of the float64
    and int64 arrays the Jacobian assembly reads and writes once each:
    scale, flux Jacobian, spatial and time shape gradients per point, shape
    values, local matrices, and the COO triplets of the scatter."""
    space = args[0]
    D = space.mesh.dim
    ne, nloc = space.elem_dofs.shape
    nq = len(simplex_rule(D, _order(space, args, kwargs)).weights)
    dx = D - 1
    words = ne * nq * (1 + dx * dx + nloc * dx + nloc) + nq * nloc \
        + 4 * ne * nloc * nloc
    return {"qp": ne * nq, "bytes": 8 * words}


def _newton_counts(args, _kwargs, out):
    stats = out[1]
    return {"degree": args[1].degree, "iters": stats.newton_iters,
            "unconverged": int(not stats.converged)}


def _adjoint_counts(args, _kwargs, out):
    return {"degree": args[0].degree, "unconverged": int(not out[1].converged)}


def _gmres_counts(_args, _kwargs, out):
    return {"iters": out.iters, "converged": int(out.converged)}


def _elements(_args, _kwargs, out):
    return {"elements": out.n_elements}


def _points(args, _kwargs, _out):
    return {"points": len(args[0])}


def instrument(tracer: Tracer, patches: Patches, prob, goal) -> None:
    """Wrap every traced call site; ``patches.restore()`` undoes it."""
    targets = [
        (adaptivity, "refine", "mesh.refine", _elements),
        (adaptivity, "uniform_refine", "mesh.refine", _elements),
        (FeSpace, "__init__", "spaces.build", None),
        (adaptivity, "enrich", "spaces.build", None),
        (FeSpace, "batch", "spaces.batch", None),
        (adaptivity, "transfer", "spaces.transfer", None),
        (adaptivity, "inject", "spaces.transfer", None),
        (adaptivity, "error_norms", "spaces.error_norms", None),
        (prob, "source", "problems.source", _points),
        (solvers, "assemble_jacobian", "assembly.jacobian", _jacobian_counts),
        (dwr, "assemble_jacobian", "assembly.jacobian", _jacobian_counts),
        (solvers, "assemble_residual", "assembly.residual", _quad_points),
        (dwr, "assemble_residual", "assembly.residual", _quad_points),
        (dwr, "residual_form_element_values", "assembly.form_values", None),
        (dwr, "jacobian_form_element_values", "assembly.form_values", None),
        (adaptivity, "newton_solve", "solvers.newton", _newton_counts),
        (adaptivity, "solve_adjoint", "solvers.adjoint", _adjoint_counts),
        (solvers, "linear_solve", "solvers.linear", None),
        (Ilu0, "__init__", "solvers.precond_setup", None),
        (Ilu0, "solve", "solvers.precond_apply", None),
        (solvers, "gmres", "solvers.gmres", _gmres_counts),
        (adaptivity, "estimate", "dwr.estimate", None),
        (adaptivity, "doerfler_mark", "adaptivity.mark", None),
        (io, "records_to_csv", "io.csv", None),
    ]
    if goal is not None:
        for method in ("value", "derivative", "gradient",
                       "derivative_element_values"):
            targets.append((type(goal), method, "goals.eval", None))
    for owner, attr, name, count in targets:
        patches.wrap(owner, attr,
                     lambda fn, name=name, count=count:
                     tracer.wrap(fn, name, count))


# -- per-layer metrics -------------------------------------------------------

def layer_metrics(spans: list) -> dict:
    """Self times, call counts and ratios per layer from one run's spans.

    A span's self time is its duration minus the time its direct children
    cover; calls are sequential, so children never overlap.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent, _c in spans:
        if parent >= 0:
            child[parent] += end - start
    self_s = defaultdict(float)
    calls = defaultdict(int)
    total = defaultdict(float)  # summed counts, keyed "name:count"
    for i, (name, start, end, _parent, counts) in enumerate(spans):
        self_s[name] += end - start - child[i]
        calls[name] += 1
        for key, value in (counts or {}).items():
            total[f"{name}:{key}"] += value

    enriched = primal = 0.0
    trials = 0
    for name, start, end, parent, counts in spans:
        if name in ("solvers.newton", "solvers.adjoint") \
                and counts["degree"] == 2:
            enriched += end - start
        elif name == "solvers.newton":
            primal += end - start
        if name == "assembly.residual" and parent >= 0 \
                and spans[parent][0] == "solvers.newton":
            trials += 1
    trials -= calls["solvers.newton"]  # the residual at each Newton start
    estimate = sum(e - s for n, s, e, _p, _c in spans if n == "dwr.estimate")
    accepted = total["solvers.newton:iters"]

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "mesh.refine_s": self_s["mesh.refine"],
        "mesh.elements_out": int(total["mesh.refine:elements"]),
        "spaces.build_s": self_s["spaces.build"],
        "spaces.batch_s": self_s["spaces.batch"],
        "spaces.transfer_s": self_s["spaces.transfer"],
        "spaces.error_norms_s": self_s["spaces.error_norms"],
        "problems.source_s": self_s["problems.source"],
        "problems.source_points": int(total["problems.source:points"]),
        "assembly.jacobian_s": self_s["assembly.jacobian"],
        "assembly.jacobian_calls": calls["assembly.jacobian"],
        "assembly.jacobian_qp_per_s": ratio(total["assembly.jacobian:qp"],
                                            self_s["assembly.jacobian"]),
        "assembly.jacobian_mb_computed":
            total["assembly.jacobian:bytes"] / 1e6,
        "assembly.residual_s": self_s["assembly.residual"],
        "assembly.residual_calls": calls["assembly.residual"],
        "assembly.residual_qp_per_s": ratio(total["assembly.residual:qp"],
                                            self_s["assembly.residual"]),
        "assembly.form_values_s": self_s["assembly.form_values"],
        "goals.eval_s": self_s["goals.eval"],
        "goals.calls": calls["goals.eval"],
        "solvers.newton_self_s": self_s["solvers.newton"],
        "solvers.newton_iters": int(accepted),
        "solvers.newton_unconverged":
            int(total["solvers.newton:unconverged"]),
        "solvers.line_search_trials": trials,
        "solvers.line_search_accept_ratio": ratio(accepted, trials),
        "solvers.linear_s": self_s["solvers.linear"],
        "solvers.linear_calls": calls["solvers.linear"],
        "solvers.adjoint_s": self_s["solvers.adjoint"],
        "solvers.precond_setup_s": self_s["solvers.precond_setup"],
        "solvers.precond_apply_s": self_s["solvers.precond_apply"],
        "solvers.gmres_s": self_s["solvers.gmres"],
        "solvers.gmres_iters": int(total["solvers.gmres:iters"]),
        "solvers.gmres_converged_ratio": ratio(
            total["solvers.gmres:converged"], calls["solvers.gmres"]),
        "dwr.enriched_solve_s": enriched,
        "dwr.estimate_s": estimate,
        "dwr.overhead_ratio": ratio(enriched + estimate, primal),
        "adaptivity.mark_s": self_s["adaptivity.mark"],
        "adaptivity.self_s": self_s["adaptivity.loop"],
        "io.csv_s": self_s["io.csv"],
    }
