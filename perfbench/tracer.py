"""Span tracer for the benchmark's traced passes.

Only traced passes import this module.  install() wraps every public
function of each regalg layer, in its defining module and in every regalg
module (the package included) that imported it by name, so calls through
either binding open a span.  Spans live in flat in-memory arrays and are
written out after the pass; per-layer metrics are computed from them.
A span's self time is its duration minus the durations of its direct
children, which nest inside it because regalg runs on one thread.
"""

from __future__ import annotations

import importlib
import inspect
from array import array
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("core", "linalg", "starcalc", "invariants", "families", "conjugacy", "cli")

# Spans whose call counts and self times are reported as per-layer metrics.
CALL_COUNTS = (
    "linalg.rref_primitive", "starcalc.generic_max_rank", "linalg.rank", "linalg.in_span",
    "starcalc.min_rank", "invariants.signature", "invariants.separate", "starcalc.bool_mul",
    "conjugacy.permute_subalgebra", "conjugacy.same_algebra", "core.is_closed",
)
SELF_TIMES = (
    "linalg.rref_primitive", "conjugacy.classify_family", "conjugacy.decide",
    "starcalc.generic_max_rank", "linalg.rank", "invariants.root_vectors_in_span",
    "starcalc.min_rank", "invariants.signature", "starcalc.bool_mul",
    "starcalc.derived_series_dims", "starcalc.action_dim_seq", "cli.main", "cli.render",
    "core.parse_descriptor", "core.is_closed",
)


def _public_functions(module):
    for attr, obj in vars(module).items():
        if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield attr, obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("l")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.op_id = -1
        self.patches: list[tuple[object, str, object]] = []
        self.signature_args: set = set()
        self.signature_repeats = 0
        self.witnesses = 0

    # ── wrapping ────────────────────────────────────────────────────────

    def install(self, package) -> None:
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        holders = [package, *modules.values()]
        observers = {
            "invariants.signature": self._observe_signature,
            "conjugacy.decide": self._observe_decide,
            "conjugacy.classify_family": self._observe_classify,
        }
        for layer, module in modules.items():
            for attr, fn in list(_public_functions(module)):
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, fn, observers.get(name))
                for holder in holders:
                    if vars(holder).get(attr) is fn:
                        self.patches.append((holder, attr, fn))
                        setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self.patches):
            setattr(holder, attr, fn)
        self.patches.clear()

    def _wrap(self, name: str, fn, observe):
        name_id = len(self.names)
        self.names.append(name)
        span_name, parent, op, start, end, stack = (
            self.span_name, self.parent, self.op, self.start, self.end, self.stack)

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op_id)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _observe_signature(self, args, kwargs, _result) -> None:
        key = (args, tuple(sorted(kwargs.items())))
        if key in self.signature_args:
            self.signature_repeats += 1
        else:
            self.signature_args.add(key)

    def _observe_decide(self, _args, _kwargs, verdict) -> None:
        self.witnesses += verdict.kind == "conjugate"

    def _observe_classify(self, _args, _kwargs, partition) -> None:
        # every member placed into an existing class cost one found witness
        self.witnesses += len(partition.members) - len(partition.classes)

    # ── results ─────────────────────────────────────────────────────────

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far."""
        names, span_name, parent = self.names, self.span_name, self.parent
        count = len(span_name)
        duration = [e - s for s, e in zip(self.start, self.end)]
        children = [0.0] * count
        for i in range(count):
            if parent[i] >= 0:
                children[parent[i]] += duration[i]
        ids = {name: k for k, name in enumerate(names)}
        gmr = ids.get("starcalc.generic_max_rank", -2)
        rank = ids.get("linalg.rank", -2)
        rref = ids.get("linalg.rref_primitive", -2)
        conjugacy_ids = {k for k, name in enumerate(names) if name.startswith("conjugacy.")}
        under_gmr = bytearray(count)
        under_conjugacy = bytearray(count)
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        rank_in_gmr = rref_in_conjugacy = 0
        for i in range(count):
            nid, p = span_name[i], parent[i]
            if p >= 0:
                under_gmr[i] = under_gmr[p] or span_name[p] == gmr
                under_conjugacy[i] = under_conjugacy[p] or span_name[p] in conjugacy_ids
            calls[nid] += 1
            self_s[names[nid]] += duration[i] - children[i]
            if nid == rank and under_gmr[i]:
                rank_in_gmr += 1
            elif nid == rref and under_conjugacy[i]:
                rref_in_conjugacy += 1
        by_name = {names[k]: v for k, v in calls.items()}
        out: dict[str, float] = {}
        for name in CALL_COUNTS:
            out[f"{name}.calls"] = by_name.get(name, 0)
        for name in SELF_TIMES:
            out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out["families.enum.self_s"] = sum(
            (v for name, v in self_s.items() if name.startswith("families.enum_")), 0.0)
        out["conjugacy.span_checks_per_witness"] = rref_in_conjugacy / self.witnesses if self.witnesses else 0.0
        gmr_calls = by_name.get("starcalc.generic_max_rank", 0)
        out["starcalc.rank_calls_per_generic_rank"] = rank_in_gmr / gmr_calls if gmr_calls else 0.0
        sig_calls = by_name.get("invariants.signature", 0)
        out["invariants.signature.repeat_ratio"] = self.signature_repeats / sig_calls if sig_calls else 0.0
        return out

    def write_spans(self, path) -> None:
        """One span per line: op, parent, name, start, end (seconds)."""
        with open(path, "w") as fh:
            fh.write("span\top\tparent\tname\tstart_s\tend_s\n")
            for i, (nid, p, op, s, e) in enumerate(
                    zip(self.span_name, self.parent, self.op, self.start, self.end)):
                fh.write(f"{i}\t{op}\t{p}\t{self.names[nid]}\t{s:.9f}\t{e:.9f}\n")
