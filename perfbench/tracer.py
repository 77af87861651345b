"""Run the qdissect CLI in-process with its layers wrapped in timing spans.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS_FILE verify --suite ...

Every public function of ``series``, ``qexpr``, ``identities``, ``oracle``,
``congruences`` and ``registry`` (and ``CountTable.save``/``load``) is
replaced, wherever a qdissect module refers to it, by a wrapper that records a
span ``[name, start_ns, end_ns, parent]``.  The import of ``qdissect.cli`` and
the CLI call itself get a span each.  Spans and counters stay in memory and are
written to SPANS_FILE as JSON when the CLI returns; the report goes to stdout
as usual.  No file of the package is changed.

The tracer's own work is kept out of the layers' spans: counting happens in
spans named "trace", and the per-call bookkeeping cost is measured on a
wrapped no-op so that ``layers.py`` can estimate the tracing overhead.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import os
import sys
import threading
import time

_now = time.perf_counter_ns

LAYERS = ("series", "qexpr", "identities", "oracle", "congruences", "registry")

# exact_div runs once per family index computed, inside the index lambdas; a
# span each would cost more than the division it times.
UNTRACED = {("congruences", "exact_div")}

SPAN_NAMES = {
    ("series", "pow_"): "series.pow",
    ("oracle", "coeff_fast"): "oracle.build",
    ("oracle", "regular_coeff_fast"): "oracle.build",
    ("oracle", "bipartition_counts"): "oracle.build",
    ("oracle", "regular_counts"): "oracle.build",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list):
        if stack:
            return stack[-1]
        # a pool worker's first span was caused by what the main thread runs
        return self._main_stack[-1] if self._main_stack else None

    def add(self, name: str, value: int) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: int) -> None:
        with self._lock:
            self.counters[name] = max(self.counters.get(name, 0), value)

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        rec = [name, _now(), 0, self._parent(stack)]
        self.spans.append(rec)
        stack.append(rec)
        try:
            yield
        finally:
            rec[2] = _now()
            stack.pop()

    def wrap(self, fn, name, count=None):
        """``fn`` inside a span; ``name`` may be a function of the arguments.
        ``count(tracer, args, result, parent)`` runs after the span closes,
        inside a "trace" span, so its cost is never charged to a layer."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = self._parent(stack)
            rec = [name(args) if callable(name) else name, _now(), 0, parent]
            self.spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _now()
                stack.pop()
            if count is not None:
                t0 = _now()
                count(self, args, result, parent)
                self.spans.append(["trace", t0, _now(), parent])
            return result

        return traced

    def dump(self, path: str) -> None:
        """Write spans and counters; the time taken is counted as tracing
        overhead (``trace.dump_ns``)."""
        t0 = _now()
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        spans = json.dumps([[n, s, e, -1 if p is None else index[id(p)]]
                            for n, s, e, p in self.spans])
        self.counters["trace.dump_ns"] = _now() - t0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"counters": %s, "spans": %s}' % (json.dumps(self.counters), spans))


def span_cost_ns(calls: int = 20000) -> float:
    """Bookkeeping time one traced call adds, from timing a wrapped no-op."""

    def noop():
        return None

    traced = Tracer().wrap(noop, "noop")
    t0 = _now()
    for _ in range(calls):
        noop()
    t1 = _now()
    for _ in range(calls):
        traced()
    t2 = _now()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


# ---------------------------------------------------------------------------
# counters, measured where the work happens
# ---------------------------------------------------------------------------

def _count_mul(tr: Tracer, args, result, parent) -> None:
    a, b = args
    n = result.order
    ia = [i for i, c in enumerate(a.coeffs[: n + 1]) if c]
    ib = [j for j, c in enumerate(b.coeffs[: n + 1]) if c]
    pairs, j = 0, len(ib)
    for i in ia:  # nonzero pairs with i + j <= n, by a two-pointer walk
        while j and ib[j - 1] > n - i:
            j -= 1
        pairs += j
    tr.add("series.mul.pair_ops", pairs)
    big = max(max(max(s.coeffs), -min(s.coeffs)) for s in (a, b, result))
    tr.maximum("series.mul.max_bits", big.bit_length())


def _count_replay(tr, args, result, parent) -> None:
    tr.add("identities.stages", len(result.stages))


def _count_walk(tr, args, result, parent) -> None:
    tr.add("congruences.instances", len(result.params_tested) * (result.n_max + 1))


def _count_build(tr, args, result, parent) -> None:
    if parent is None or parent[0] != "oracle.build":
        tr.add("oracle.entries", result.n_max + 1)


def _count_load(tr, args, result, parent) -> None:
    tr.add("oracle.cache.load_bytes", os.path.getsize(args[-1]))


def _count_save(tr, args, result, parent) -> None:
    tr.add("oracle.cache.save_bytes", os.path.getsize(args[-1]))


COUNTERS = {
    ("series", "mul"): _count_mul,
    ("identities", "replay"): _count_replay,
    ("congruences", "verify_family"): _count_walk,
    ("oracle", "coeff_fast"): _count_build,
    ("oracle", "regular_coeff_fast"): _count_build,
    ("oracle", "bipartition_counts"): _count_build,
    ("oracle", "regular_counts"): _count_build,
}


def _eval_name(args) -> str:
    return "qexpr.eval:" + type(args[0]).__name__


def install(tracer: Tracer) -> None:
    """Wrap the layers' public functions everywhere qdissect refers to them."""
    modules = [m for name, m in sys.modules.items() if name.startswith("qdissect")]
    replace: dict[int, object] = {}
    for layer in LAYERS:
        mod = sys.modules[f"qdissect.{layer}"]
        for attr, fn in list(vars(mod).items()):
            if (attr.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__ or (layer, attr) in UNTRACED):
                continue
            name = _eval_name if attr == "eval_qexpr" else SPAN_NAMES.get(
                (layer, attr), f"{layer}.{attr}")
            replace[id(fn)] = tracer.wrap(fn, name, COUNTERS.get((layer, attr)))
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in replace and inspect.isfunction(value):
                setattr(mod, attr, replace[id(value)])

    table = sys.modules["qdissect.oracle"].CountTable
    table.save = tracer.wrap(table.save, "oracle.cache.save", _count_save)
    load = tracer.wrap(table.__dict__["load"].__func__, "oracle.cache.load", _count_load)
    table.load = classmethod(load)


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS_FILE CLI_ARG...", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.span("cli.import"):
        import qdissect.cli
    qexpr = sys.modules["qdissect.qexpr"]
    tracer.counters["qexpr.memo_start"] = len(getattr(qexpr, "_MEMO", ()))
    with tracer.span("trace"):
        tracer.counters["trace.span_cost_ns"] = span_cost_ns()
        install(tracer)
    code = 0
    with tracer.span("cli.main"):
        try:
            qdissect.cli.main.main(args=cli_args, prog_name="qdissect")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    sys.stdout.flush()
    tracer.counters["qexpr.memo_size"] = len(getattr(qexpr, "_MEMO", ()))
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
