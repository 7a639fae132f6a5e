"""Span tracing of locdt's layers from outside the library.

``Tracer.install`` replaces the public functions of each layer with
wrappers that record a span (name, start, end, parent) per call.  Every
module-level name bound to a wrapped function is replaced, so calls through
the defining module and through the names imported into ``harness``,
``checks``, ``cli`` or the package root are all seen.  Spans stay in memory;
pool workers forked while tracing write theirs to ``span_dir`` when each of
their top-level calls returns, and the parent merges them.
"""

import functools
import json
import os
import re
import time
from collections import Counter

# layer -> wrapped public functions; "PermGroup.x" names a method
LAYER_FUNCTIONS = {
    "geometry": (
        "complete", "complete_bipartite", "cycle", "petersen", "petersen_s5",
        "hoffman_singleton", "incidence_pg2", "incidence_w3",
        "incidence_hexagon", "mobius_subgroups", "pgammal2",
        "chamber_model_w32",
    ),
    "graphs": ("analyze", "subdivision", "lift_group", "diameter", "girth"),
    "autgrp": ("automorphism_group", "isomorphism", "refine"),
    "perms": (
        "build_chain", "orbit_sizes_within", "symmetric_group",
        "alternating_group", "PermGroup.stabilizer",
        "PermGroup.derived_subgroup", "PermGroup.index2_subgroups_over_derived",
        "PermGroup.is_k_transitive", "PermGroup.orbits",
    ),
    "checks": (
        "check_local_sdt", "check_arc_transitive", "complete_graph_criteria",
        "condition_star", "diameter_bounds_check", "cage_certificate",
    ),
    "harness": (
        "verify_table", "verify_case", "run_case_by_id",
        "chamber_groups_on_w32", "build_constructor", "report_to_json",
        "compare_with_golden",
    ),
    "cli": ("main",),
}
LAYERS = tuple(LAYER_FUNCTIONS)

# called thousands of times per row: counted, not spanned
COUNTED_FUNCTIONS = {"graphs.bfs_distances": "graphs.bfs_calls"}

NAME, START, END, PARENT, TAG, OK = range(6)


def row_metric(row):
    """Metric-name form of a harness row id: '4(q=2)' -> 'harness.row_s.4_q2'."""
    return "harness.row_s." + re.sub(r"[()=]", "", row.replace("(", "_("))


class Tracer:
    def __init__(self, span_dir):
        self.span_dir = span_dir
        self.pid = os.getpid()
        self.spans = []  # [name, start, end, parent index, tag, returned]
        self.stack = []
        self.counts = Counter()
        self.forked = False
        self._patched = []  # (owner, attribute, original)

    # -- recording ---------------------------------------------------------
    def _enter_process(self):
        """A forked pool worker starts with a copy of the parent's spans."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.spans, self.stack, self.counts = [], [], Counter()
            self.forked = True

    def _span(self, name, fn, tag_of=None, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._enter_process()
            idx = len(tracer.spans)
            span = [name, time.perf_counter(), None,
                    tracer.stack[-1] if tracer.stack else -1,
                    tag_of(args) if tag_of else None, False]
            tracer.spans.append(span)
            tracer.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
                span[OK] = True
                return result
            finally:
                tracer.stack.pop()
                span[END] = time.perf_counter()
                if span[OK] and on_result is not None:
                    on_result(tracer.counts, result)
                if not tracer.stack and tracer.forked:
                    tracer._flush_child()

        return functools.wraps(fn)(wrapper)

    def _counter(self, metric, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._enter_process()
            tracer.counts[metric] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _flush_child(self):
        path = os.path.join(self.span_dir, f"child-{self.pid}.jsonl")
        with open(path, "a") as fh:
            fh.write(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")
        self.spans, self.counts = [], Counter()

    def merge_children(self):
        """Adopt spans written by pool workers (their roots get no parent)."""
        for entry in sorted(os.listdir(self.span_dir)):
            if not entry.startswith("child-"):
                continue
            path = os.path.join(self.span_dir, entry)
            with open(path) as fh:
                for line in fh:
                    chunk = json.loads(line)
                    base = len(self.spans)
                    for s in chunk["spans"]:
                        s[PARENT] = -2 if s[PARENT] < 0 else s[PARENT] + base
                        self.spans.append(s)
                    self.counts.update(chunk["counts"])
            os.remove(path)

    # -- installation ------------------------------------------------------
    def install(self):
        import locdt
        from locdt import autgrp, checks, cli, geometry, graphs, harness, perms

        modules = {"geometry": geometry, "graphs": graphs, "autgrp": autgrp,
                   "perms": perms, "checks": checks, "harness": harness,
                   "cli": cli}
        hooks = _result_hooks()
        tags = {"harness.verify_case": lambda args: args[0].row}
        replace = {}
        for layer, names in LAYER_FUNCTIONS.items():
            mod = modules[layer]
            for fname in names:
                name = f"{layer}.{fname.split('.')[-1]}"
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._set(cls, meth, self._span(name, orig, tags.get(name), hooks.get(name)))
                else:
                    orig = getattr(mod, fname)
                    replace[orig] = self._span(name, orig, tags.get(name), hooks.get(name))
        for dotted, metric in COUNTED_FUNCTIONS.items():
            layer, fname = dotted.split(".")
            orig = getattr(modules[layer], fname)
            replace[orig] = self._counter(metric, orig)
        for mod in (locdt, *modules.values()):
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in replace:
                    self._set(mod, attr, replace[value])

    def _set(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    def reset(self):
        self.spans, self.stack, self.counts = [], [], Counter()


def _result_hooks():
    def generators(counts, group):
        counts["autgrp.generators"] += len(group.generators)

    def chain(counts, ch):
        counts["perms.base_points"] += len(ch.base)
        counts["perms.strong_gens_total"] += len({g for lvl in ch.sgd for g in lvl})

    def ldt(counts, result):
        counts["checks.ldt_reps"] += len(result.reps)
        counts["checks.sphere_points"] += sum(
            s.sphere_size for r in result.reps for s in r.spheres)

    return {
        "autgrp.automorphism_group": generators,
        "perms.build_chain": chain,
        "checks.check_local_sdt": ldt,
    }


# -- reduction to per-layer metrics -----------------------------------------

def _has_ancestor(spans, s, pred):
    p = s[PARENT]
    while p >= 0:
        if pred(spans[p][NAME]):
            return True
        p = spans[p][PARENT]
    return False


def _outermost(spans, pred):
    """Spans whose name satisfies ``pred`` with no ancestor that does."""
    return [s for s in spans if pred(s[NAME]) and not _has_ancestor(spans, s, pred)]


def _self_times(spans):
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child_time)]


def layer_metrics(spans, counts, parent_wall):
    """Per-layer totals over ``spans``.  ``parent_wall`` is the traced
    wall time of the parent process, the base of ``trace.coverage``."""
    m = {}

    def incl(name):
        found = _outermost(spans, lambda n: n == name)
        return sum(s[END] - s[START] for s in found), found

    m["autgrp.search_s"], found = incl("autgrp.automorphism_group")
    m["autgrp.search_calls"] = len(found)
    m["autgrp.generators"] = counts["autgrp.generators"]
    m["autgrp.iso_s"], found = incl("autgrp.isomorphism")
    m["autgrp.iso_calls"] = len(found)
    m["autgrp.iso_decided"] = sum(1 for s in found if s[OK])

    m["perms.chain_s"], found = incl("perms.build_chain")
    m["perms.chain_calls"] = len(found)
    n_chain = sum(1 for s in spans if s[NAME] == "perms.build_chain" and s[OK])
    m["perms.base_len"] = counts["perms.base_points"] / n_chain if n_chain else 0.0
    m["perms.strong_gens"] = counts["perms.strong_gens_total"] / n_chain if n_chain else 0.0
    m["perms.stabilizer_s"], found = incl("perms.stabilizer")
    m["perms.stabilizer_calls"] = len(found)
    m["perms.derived_s"], _ = incl("perms.derived_subgroup")

    selfs = _self_times(spans)
    ldt = [i for i, s in enumerate(spans) if s[NAME] == "checks.check_local_sdt"]
    m["checks.ldt_s"] = sum(selfs[i] for i in ldt)
    m["checks.ldt_calls"] = len(ldt)
    m["checks.ldt_reps"] = counts["checks.ldt_reps"]
    m["checks.sphere_points"] = counts["checks.sphere_points"]
    m["checks.arc_s"], _ = incl("checks.check_arc_transitive")
    m["checks.complete_s"], _ = incl("checks.complete_graph_criteria")

    m["graphs.analyze_s"], _ = incl("graphs.analyze")
    m["graphs.lift_s"], _ = incl("graphs.lift_group")
    m["graphs.bfs_calls"] = counts["graphs.bfs_calls"]

    geo_roots = _outermost(spans, lambda n: n.startswith("geometry."))
    m["geometry.construct_s"] = sum(s[END] - s[START] for s in geo_roots)
    m["geometry.construct_calls"] = len(geo_roots)

    for s in spans:
        if s[NAME] == "harness.verify_case":
            key = row_metric(s[TAG])
            m[key] = m.get(key, 0.0) + s[END] - s[START]
    m["harness.chamber_s"], found = incl("harness.chamber_groups_on_w32")
    m["harness.chamber_calls"] = len(found)
    m["harness.serial_tail_s"] = _serial_tail(spans)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
    for s, t in zip(spans, selfs):
        m[f"{s[NAME].split('.')[0]}.self_s"] += t
    parent_self = sum(t for t, ok in zip(selfs, _process_roots(spans)) if ok)
    m["trace.coverage"] = parent_self / parent_wall if parent_wall else 0.0
    return m


def _process_roots(spans):
    """Per span, whether the parent process recorded it (its root has
    parent -1; pool-worker roots were given -2 when merged)."""
    in_parent = []
    for s in spans:
        p = s[PARENT]
        in_parent.append(p == -1 or (p >= 0 and in_parent[p]))
    return in_parent


def _serial_tail(spans):
    """Time verify_table spends after its rows: from the first negative row
    the parent process runs to the end of verify_table."""
    parent = _process_roots(spans)
    total = 0.0
    for i, s in enumerate(spans):
        if s[NAME] != "harness.verify_table" or not parent[i]:
            continue
        starts = [t[START] for j, t in enumerate(spans)
                  if parent[j] and t[NAME] == "harness.verify_case"
                  and t[TAG].startswith("neg-") and s[START] <= t[START] <= s[END]]
        if starts:
            total += s[END] - min(starts)
    return total
