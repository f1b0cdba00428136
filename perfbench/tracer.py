"""In-memory span tracing of symcon's layers, installed from outside the package.

A span is (name, start, end, parent, run id).  Spans live in flat arrays
while the workload runs and are aggregated and written out only after it
ends.  A layer's total time counts only its outermost spans, so recursion
and nesting inside one layer are not counted twice; its self time is each
span's duration minus the durations of its direct children.

`patch_symcon` wraps the public functions of every layer.  Because the
package binds names with `from .x import y`, a function is replaced in
every `symcon` module that holds it, not only where it is defined;
`unpatched_references` reports any reference that was missed.
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import sys
import time
from array import array
from collections import Counter
from types import SimpleNamespace

# (module, attribute) -> layer metric; functions bound elsewhere by
# `from ... import` are patched wherever they appear.
FUNCTION_SPANS = (
    ("symcon.characters", "_build_table", "characters.table_build"),
    ("symcon.characters", "to_schur", "characters.to_schur"),
    ("symcon.characters", "alternant_oracle", "characters.alternant"),
    ("symcon.symfunc", "plethysm_h", "symfunc.plethysm"),
    ("symcon.symfunc", "plethysm_e", "symfunc.plethysm"),
    ("symcon.symfunc", "product_expansion", "symfunc.product_expansion"),
    ("symcon.symfunc", "plethysm_into", "symfunc.series"),
    ("symcon.partitions", "members", "partitions.members"),
    ("symcon.partitions", "partitions_of", "partitions.partitions_of"),
    ("symcon.partitions", "maj_multiplicity", "partitions.maj"),
    ("symcon.numbertheory", "factorize", "numbertheory"),
    ("symcon.numbertheory", "totient", "numbertheory"),
    ("symcon.numbertheory", "moebius", "numbertheory"),
    ("symcon.numbertheory", "divisors", "numbertheory"),
    ("symcon.numbertheory", "ramanujan_sum", "numbertheory"),
    ("symcon.numbertheory", "ramanujan_sum_oracle", "numbertheory"),
    ("symcon.repmodels", "module_char", "repmodels.module_char"),
    ("symcon.repmodels", "module_char_plethystic", "repmodels.module_char_plethystic"),
    ("symcon.repmodels", "lie_series_identities", "repmodels.lie_identities"),
    ("symcon.cli", "_emit", "cli.render"),
    ("symcon.cli", "_csv_text", "cli.render"),
)

# (module, class, methods) -> layer metric.
METHOD_SPANS = (
    ("symcon.symfunc", "PExpr", ("__add__", "__radd__"), "symfunc.pexpr_add"),
    ("symcon.symfunc", "Series", ("__mul__", "__rmul__", "inverse"), "symfunc.series"),
    ("symcon.characters", "SchurExpansion", ("to_json_dict", "pretty"), "cli.render"),
    ("symcon.verify", "CheckResult", ("to_json_dict",), "cli.render"),
)

# Metrics given as total and self time, apart from the per-group catalog ones.
TIMED_LAYERS = (
    "characters.table_build",
    "characters.to_schur",
    "characters.alternant",
    "symfunc.pexpr_mul",
    "symfunc.pexpr_add",
    "symfunc.plethysm",
    "symfunc.plethystic_sum",
    "symfunc.product_expansion",
    "symfunc.series",
    "partitions.members",
    "partitions.partitions_of",
    "partitions.maj",
    "numbertheory",
    "repmodels.module_char",
    "repmodels.module_char_plethystic",
    "repmodels.lie_identities",
    "verify.build_catalog",
    "cli.render",
)

# Catalog groups of `symcon.verify.CATALOG`, each reported as
# verify.group.<group>_s; a group added later is traced but not reported.
CATALOG_GROUPS = (
    "thm4.2", "thm4.11", "prop4.13", "thm4.15", "prop6.5", "thm5.9",
    "cor5.2", "prop5.4", "lem5.5", "prop3.6", "prop2.3", "thm3.4",
    "cor5.10", "thm1.1", "strict", "dims", "routes", "oracles", "lemmas",
    "tables", "counterexamples", "conjecture", "coverage",
)

COUNT_METRICS = (
    "characters.table_builds",
    "characters.mn_cache_entries",
    "characters.to_schur_calls",
    "symfunc.pexpr_mul_calls",
    "symfunc.pexpr_mul_term_pairs",
    "symfunc.pexpr_add_calls",
    "symfunc.plethysm_calls",
    "symfunc.plethystic_sum_calls",
    "symfunc.plethystic_sum_distinct",
    "verify.checks",
)

FRACTION_METRICS = ("fraction.new_calls", "fraction.add_calls", "fraction.mul_calls")


def _time_metric(layer: str, kind: str) -> str:
    # "numbertheory" is a whole layer: its metrics are numbertheory.s / .self_s.
    if "." not in layer:
        return f"{layer}.{kind}"
    return f"{layer}_{kind}"


def span_layers() -> list[str]:
    return list(TIMED_LAYERS) + [f"verify.group.{g}" for g in CATALOG_GROUPS]


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, as (name, unit)."""
    out = []
    for layer in span_layers():
        out.append((_time_metric(layer, "s"), "s"))
        out.append((_time_metric(layer, "self_s"), "s"))
    out += [(name, "count") for name in COUNT_METRICS]
    out.append(("symfunc.plethystic_sum_useful_ratio", "ratio"))
    out += [(name, "count") for name in FRACTION_METRICS]
    out.append(("trace.wall_s", "s"))
    out.append(("trace.overhead_s", "s"))
    out += [("host.wall_s", "s"), ("host.setup_s", "s"), ("host.kernel_ms", "ms")]
    return out


class Tracer:
    """Records spans into flat arrays; `run_id` tags spans with the operation."""

    def __init__(self):
        self.clock = time.perf_counter
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self.stack = [-1]
        self.run_id = -1
        self.counts: Counter = Counter()
        self._pleth_args: set = set()
        self._series_keys: dict[int, tuple] = {}

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, note=None):
        """A function that records one span around each call of `fn`."""
        nid = self._intern(name)
        clock = self.clock
        stack, start, end, parent = self.stack, self.start, self.end, self.parent
        names, run = self.name, self.run
        tracer = self

        def traced(*args, **kwargs):
            if note is not None:
                note(*args, **kwargs)
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1])
            run.append(tracer.run_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- count hooks ---------------------------------------------------------

    def _note_mul(self, a, b):
        other = len(b.terms) if hasattr(b, "terms") else 1
        self.counts["symfunc.pexpr_mul_term_pairs"] += len(a.terms) * other

    def _note_plethystic_sum(self, F, n, kind="h", parity=None, signed=None):
        key = self._series_keys.get(id(F))
        if key is None:
            # Key the series by its content, and keep it alive so its id is not reused.
            content = tuple(
                (d, frozenset(f.terms.items())) for d, f in sorted(F.components.items())
            )
            key = self._series_keys[id(F)] = (F, (F.trunc, content))
        self._pleth_args.add((key[1], n, kind, parity, signed))

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict:
        """Total, self time and call count per span name."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        total = Counter()
        self_t = Counter()
        calls = Counter()
        outer = self._outermost()
        for i in range(n):
            name = self.names[self.name[i]]
            calls[name] += 1
            self_t[name] += dur[i] - child[i]
            if outer[i]:
                total[name] += dur[i]
        return {"total": dict(total), "self": dict(self_t), "calls": dict(calls)}

    def _outermost(self) -> list[bool]:
        """outer[i]: no ancestor of span i has the same name.

        Spans are stored in start order, so replaying them with a stack of
        open spans visits every ancestor before its descendants.
        """
        outer = []
        path: list[int] = []
        open_names = Counter()
        for i in range(len(self.start)):
            p = self.parent[i]
            while path and path[-1] != p:
                open_names[self.name[path.pop()]] -= 1
            nid = self.name[i]
            outer.append(open_names[nid] == 0)
            path.append(i)
            open_names[nid] += 1
        return outer

    def write(self, path, meta: dict) -> None:
        t0 = self.start[0] if len(self.start) else 0.0
        payload = dict(meta)
        payload.update(
            names=self.names,
            name=list(self.name),
            start=[round(s - t0, 7) for s in self.start],
            end=[round(e - t0, 7) for e in self.end],
            parent=list(self.parent),
            run=list(self.run),
        )
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _symcon_modules():
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "symcon" or name.startswith("symcon."))
    ]


def _replace_everywhere(original, replacement) -> None:
    for mod in _symcon_modules():
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)


def patch_symcon(tracer: Tracer) -> list:
    """Wrap every layer's public functions; return the originals that were wrapped."""
    originals = []
    for modname, attr, metric in FUNCTION_SPANS:
        original = getattr(sys.modules[modname], attr)
        _replace_everywhere(original, tracer.wrap(metric, original))
        originals.append(original)

    symfunc = sys.modules["symcon.symfunc"]
    original = symfunc.plethystic_sum
    _replace_everywhere(
        original,
        tracer.wrap("symfunc.plethystic_sum", original, tracer._note_plethystic_sum),
    )
    originals.append(original)

    mul = symfunc.PExpr.__mul__
    traced_mul = tracer.wrap("symfunc.pexpr_mul", mul, tracer._note_mul)
    symfunc.PExpr.__mul__ = symfunc.PExpr.__rmul__ = traced_mul
    originals.append(mul)

    for modname, clsname, methods, metric in METHOD_SPANS:
        cls = getattr(sys.modules[modname], clsname)
        wrapped = {}
        for meth in methods:
            fn = vars(cls)[meth]
            if fn not in wrapped:
                wrapped[fn] = tracer.wrap(metric, fn)
                originals.append(fn)
            setattr(cls, meth, wrapped[fn])

    # cli renders with json.dumps; give cli a json whose dumps is traced.
    cli = sys.modules["symcon.cli"]
    cli.json = SimpleNamespace(dumps=tracer.wrap("cli.render", json.dumps))

    verify = sys.modules["symcon.verify"]
    traced_entries = []
    for entry in verify.CATALOG:
        traced_entries.append(
            dataclasses.replace(entry, run=_check_runner(tracer, entry))
        )
    verify.CATALOG[:] = traced_entries
    verify._BY_ID.update({e.id: e for e in traced_entries})
    return originals


def _check_runner(tracer: Tracer, entry):
    run = tracer.wrap(f"verify.group.{entry.group}", entry.run)

    def traced_check(n):
        tracer.counts["verify.checks"] += 1
        tracer.run_id = tracer.counts["verify.checks"] - 1
        return run(n)

    return traced_check


def unpatched_references(originals) -> list[str]:
    """symcon module or class attributes still bound to an unwrapped original."""
    ids = {id(o) for o in originals}
    missed = []
    for mod in _symcon_modules():
        for attr, val in vars(mod).items():
            if id(val) in ids:
                missed.append(f"{mod.__name__}.{attr}")
            if isinstance(val, type) and val.__module__.startswith("symcon"):
                for meth, fn in vars(val).items():
                    if id(fn) in ids:
                        missed.append(f"{mod.__name__}.{attr}.{meth}")
    return sorted(set(missed))


def layer_metrics(tracer: Tracer, build_table, mn) -> dict:
    """Per-layer metric values of one traced workload process."""
    agg = tracer.summary()
    out = {}
    for layer in span_layers():
        out[_time_metric(layer, "s")] = agg["total"].get(layer, 0.0)
        out[_time_metric(layer, "self_s")] = agg["self"].get(layer, 0.0)
    calls = agg["calls"]
    sums = tracer.counts
    out["characters.table_builds"] = build_table.cache_info().misses
    out["characters.mn_cache_entries"] = mn.cache_info().currsize
    out["characters.to_schur_calls"] = calls.get("characters.to_schur", 0)
    out["symfunc.pexpr_mul_calls"] = calls.get("symfunc.pexpr_mul", 0)
    out["symfunc.pexpr_mul_term_pairs"] = sums["symfunc.pexpr_mul_term_pairs"]
    out["symfunc.pexpr_add_calls"] = calls.get("symfunc.pexpr_add", 0)
    out["symfunc.plethysm_calls"] = calls.get("symfunc.plethysm", 0)
    n_sums = calls.get("symfunc.plethystic_sum", 0)
    out["symfunc.plethystic_sum_calls"] = n_sums
    out["symfunc.plethystic_sum_distinct"] = len(tracer._pleth_args)
    out["symfunc.plethystic_sum_useful_ratio"] = (
        len(tracer._pleth_args) / n_sums if n_sums else 0.0
    )
    out["verify.checks"] = sums["verify.checks"]
    return out


def count_fractions() -> Counter:
    """Patch Fraction to count construction, addition and multiplication."""
    from fractions import Fraction

    counts = Counter()
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        counts["fraction.new_calls"] += 1
        return new(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted_new)
    for meths, key in (
        (("__add__", "__radd__"), "fraction.add_calls"),
        (("__mul__", "__rmul__"), "fraction.mul_calls"),
    ):
        for meth in meths:
            setattr(Fraction, meth, _counted(getattr(Fraction, meth), counts, key))
    return counts


def _counted(fn, counts, key):
    def counted(*args):
        counts[key] += 1
        return fn(*args)

    return counted
