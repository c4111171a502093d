"""Span recording at the module boundaries of biquad_hnp, from outside it.

``Tracer.install`` replaces module attributes: every binding of a traced
function in any ``biquad_hnp`` module (including the ones made by
``from .x import f``) is pointed at a timing wrapper.  Nothing under
``src/`` is edited.

Calls are aggregated per parent: all calls of one function under one
parent node share a node holding the call count, the summed duration and
the first start and last end.  A function called once per field therefore
adds one node per parent, not one per call, and costs two clock reads per
call.  The tracer keeps one call stack and so assumes a single thread;
the benchmark always runs the CLI with one thread.

``layer_metrics`` turns the nodes of one traced run into the per-layer
metrics: self time per layer (a node's summed duration minus that of its
traced children), call counts, and the counters recorded at the
boundaries.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# Traced functions and the layer each one's self time is charged to.
# Functions not listed (for example the per-prime symbols in arith) are
# charged to their traced caller; wrapping them would cost more than they do.
LAYER_OF = {
    "arith.build_sieve": "arith.build_sieve",
    "_kernels.enumerate_block": "kernels.enumerate_block",
    "enumeration.enumerate_fields": "enumeration",
    "enumeration.field_records": "enumeration",
    "enumeration.iter_valid_triples": "enumeration",
    "enumeration.unique_field_rows": "enumeration.unique_field_rows",
    "fields.subfield_data": "fields.subfield_data",
    "hnp.classify_by_splitting": "hnp.classify_by_splitting",
    "hnp.classify_by_congruences": "hnp.classify_by_congruences",
    "cli.main": "cli",
    "cli.sink": "cli.sink",
}
# every public function defined in asymptotics is traced and charged here
ASYMPTOTICS_LAYER = "asymptotics"

RECORD_ROW_BYTES = 48  # one kernel record: six int64 fields


class Node:
    """All calls of one function under one parent node."""

    __slots__ = ("id", "name", "parent", "start", "end", "calls", "total")

    def __init__(self, node_id: int, name: str, parent: int | None):
        self.id = node_id
        self.name = name
        self.parent = parent
        self.start = None
        self.end = None
        self.calls = 0
        self.total = 0.0


class Tracer:
    """In-memory call tree of the traced functions; written out by ``dump``."""

    def __init__(self) -> None:
        self.nodes: list[Node] = []
        self._by_key: dict[tuple[int | None, str], Node] = {}
        self._stack: list[int] = []
        self.counters: dict[str, int] = {}

    def _enter(self, name: str) -> Node:
        parent = self._stack[-1] if self._stack else None
        node = self._by_key.get((parent, name))
        if node is None:
            node = Node(len(self.nodes), name, parent)
            self.nodes.append(node)
            self._by_key[(parent, name)] = node
        self._stack.append(node.id)
        return node

    def _leave(self, node: Node, t0: float, t1: float) -> None:
        self._stack.pop()
        if node.start is None:
            node.start = t0
        node.end = t1
        node.calls += 1
        node.total += t1 - t0

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + int(amount)

    def wrap(self, name: str, fn, before=None, after=None):
        """Timing wrapper; ``before`` may rewrite the arguments and
        ``after`` records counters from the arguments and the result."""
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            node = self._enter(name)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(node, t0, perf())
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Wrapper for a generator function: each step is one call."""
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                node = self._enter(name)
                t0 = perf()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._leave(node, t0, perf())
                yield item

        return traced

    def install(self) -> None:
        """Point every binding of each traced function at its wrapper."""
        from biquad_hnp import _kernels, arith, asymptotics, cli, enumeration, fields, hnp

        modules = {
            "arith": arith,
            "_kernels": _kernels,
            "enumeration": enumeration,
            "fields": fields,
            "hnp": hnp,
            "asymptotics": asymptotics,
            "cli": cli,
        }
        wrappers = {}
        for qualname in LAYER_OF:
            mod_name, _, attr = qualname.partition(".")
            if mod_name in modules and hasattr(modules[mod_name], attr):
                wrappers[qualname] = getattr(modules[mod_name], attr)
        for attr, fn in vars(asymptotics).items():
            if (
                inspect.isfunction(fn)
                and not attr.startswith("_")
                and fn.__module__ == asymptotics.__name__
            ):
                wrappers[f"asymptotics.{attr}"] = fn

        hooks = {
            "arith.build_sieve": dict(after=self._after_sieve),
            "_kernels.enumerate_block": dict(after=self._after_block),
            "enumeration.enumerate_fields": dict(before=self._wrap_sink),
            "enumeration.unique_field_rows": dict(after=self._after_dedup),
        }
        replaced = {}
        for qualname, fn in wrappers.items():
            wrap = self.wrap_generator if inspect.isgeneratorfunction(fn) else self.wrap
            replaced[id(fn)] = (fn, wrap(qualname, fn, **hooks.get(qualname, {})))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def _after_sieve(self, args, kwargs, sieve) -> None:
        self.count(
            "arith.sieve_bytes",
            sieve.smallest_prime_factor.nbytes + sieve.mobius.nbytes,
        )

    def _after_block(self, args, kwargs, result) -> None:
        class_total, _, records = result
        self.count("kernels.tuples_admitted", class_total.sum())
        self.count("kernels.record_rows", len(records))

    def _after_dedup(self, args, kwargs, result) -> None:
        records = args[0] if args else kwargs["records"]
        self.count("enumeration.collected_rows", len(records))
        self.count("enumeration.fields_emitted", len(result[0]))

    def _wrap_sink(self, args, kwargs):
        if len(args) > 1 and args[1] is not None:
            args = (args[0], self.wrap("cli.sink", args[1])) + tuple(args[2:])
        elif kwargs.get("sink") is not None:
            kwargs = dict(kwargs, sink=self.wrap("cli.sink", kwargs["sink"]))
        return args, kwargs

    def dump(self, path: str) -> None:
        payload = {
            "nodes": [
                [n.id, n.name, n.parent, n.start, n.end, n.calls, n.total]
                for n in self.nodes
            ],
            "counters": self.counters,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


def layer_of(name: str) -> str:
    if name.startswith("asymptotics."):
        return ASYMPTOTICS_LAYER
    return LAYER_OF[name]


def layer_metrics(payload: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run, from a ``Tracer.dump`` payload."""
    rows = payload["nodes"]
    counters = payload["counters"]
    child_total = [0.0] * len(rows)
    for node_id, _, parent, _, _, _, total in rows:
        if parent is not None:
            child_total[parent] += total
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    ancestors_named: dict[int, set[str]] = {}
    witness_calls = 0
    for node_id, name, parent, _, _, n_calls, total in rows:
        layer = layer_of(name)
        self_s[layer] = self_s.get(layer, 0.0) + total - child_total[node_id]
        calls[name] = calls.get(name, 0) + n_calls
        above = set() if parent is None else ancestors_named[parent] | {rows[parent][1]}
        ancestors_named[node_id] = above
        if name == "hnp.classify_by_splitting" and "enumeration.enumerate_fields" in above:
            witness_calls += n_calls

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    block_s = self_s.get("kernels.enumerate_block", 0.0)
    admitted = counters.get("kernels.tuples_admitted", 0)
    emitted = counters.get("enumeration.fields_emitted", 0)
    return {
        "arith.build_sieve.s": self_s.get("arith.build_sieve", 0.0),
        "arith.sieve_bytes": counters.get("arith.sieve_bytes", 0),
        "kernels.enumerate_block.s": block_s,
        "kernels.tuples_admitted": admitted,
        "kernels.tuples_per_s": ratio(admitted, block_s),
        "kernels.records_bytes": counters.get("kernels.record_rows", 0) * RECORD_ROW_BYTES,
        "enumeration.self_s": self_s.get("enumeration", 0.0),
        "enumeration.unique_field_rows.s": self_s.get("enumeration.unique_field_rows", 0.0),
        "enumeration.fields_emitted": emitted,
        "enumeration.dedup_keep_ratio": ratio(
            emitted, counters.get("enumeration.collected_rows", 0)
        ),
        "fields.subfield_data.s": self_s.get("fields.subfield_data", 0.0),
        "fields.subfield_data.calls": calls.get("fields.subfield_data", 0),
        "hnp.classify_by_splitting.s": self_s.get("hnp.classify_by_splitting", 0.0),
        "hnp.classify_by_splitting.calls": calls.get("hnp.classify_by_splitting", 0),
        "hnp.classify_by_congruences.s": self_s.get("hnp.classify_by_congruences", 0.0),
        "hnp.classify_by_congruences.calls": calls.get("hnp.classify_by_congruences", 0),
        "hnp.witness_share": ratio(witness_calls, emitted),
        "asymptotics.s": self_s.get(ASYMPTOTICS_LAYER, 0.0),
        "cli.sink.s": self_s.get("cli.sink", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "trace.layers_s": sum(self_s.values()),
    }


def main(argv: list[str]) -> int:
    """python3 perfbench/tracer.py NODES.json <biquad-hnp arguments...>"""
    out, cli_args = argv[0], argv[1:]
    from biquad_hnp import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
