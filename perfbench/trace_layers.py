"""Spans around the calls into each domkit layer, recorded from outside.

Tracer.install() replaces each traced function wherever a domkit module
looks it up (the package namespace, the modules that import it, and the
kernel module that domkit.solver reaches as _kernel), so domkit's own
code is untouched.  Spans (name, start, end, parent) stay in memory;
summary() derives self times and counts at the end of the round.
"""

from __future__ import annotations

import time

import domkit
from domkit import construct, formula, search, solver

# traced function -> the module that defines it
TRACED = {
    "domination_ratio": formula,
    "construct_best": construct,
    "check_block_lemma": construct,
    "verify_dominating": construct,
    "reduce_mod": solver,
    "gamma_exact": solver,
    "verify_witness": solver,
    "search_ratio": search,
}
# every namespace that looks one of them up
MODULES = (domkit, formula, construct, solver, search)


class Tracer:
    def __init__(self):
        # span: [name, start_ns, end_ns, parent index, kernel nodes]
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if name == "solve_cover":
                span[4] = out[2]
            return out

        return traced

    def install(self) -> None:
        for name, home in TRACED.items():
            original = getattr(home, name)
            traced = self.wrap(name, original)
            for mod in MODULES:
                if mod.__dict__.get(name) is original:
                    setattr(mod, name, traced)
        kernel = solver._kernel
        kernel.solve_cover = self.wrap("solve_cover", kernel.solve_cover)

    def summary(self) -> dict:
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: dict[str, int] = {}
        total: dict[str, int] = {}
        self_ns: dict[str, int] = {}
        nodes = []
        top3 = 0
        gamma_in_search: dict[int, list[int]] = {}
        for i, (name, start, end, parent, explored) in enumerate(spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + dur
            self_ns[name] = self_ns.get(name, 0) + dur - child_ns[i]
            if name == "solve_cover":
                nodes.append(explored)
            if name == "gamma_exact" and parent >= 0 and spans[parent][0] == "search_ratio":
                gamma_in_search.setdefault(parent, []).append(dur)
        for durs in gamma_in_search.values():
            top3 += sum(sorted(durs)[-3:])
        return {
            "calls": calls,
            "total_ns": total,
            "self_ns": self_ns,
            "nodes": sum(nodes),
            "nodes_max": max(nodes, default=0),
            "top3_ns": top3,
        }

