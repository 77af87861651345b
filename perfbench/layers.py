"""Per-layer metrics from the spans that ``tracer.py`` records.

A span is ``[name, start_ns, end_ns, parent]`` with ``parent`` the index of
the span that caused it, or -1.  Within one thread spans nest; a span opened
in a pool worker names the main thread's open span as its parent.

Self time is attributed by a sweep over the span boundaries: each instant is
split equally among the open spans that have no open child.  For spans on one
thread this is the usual rule (a span's duration minus the part its children
cover); while two pool workers run, each gets half of the wall time, so the
self times of all spans always add up to the time some span was open.
"""

from __future__ import annotations

from collections import Counter

# qexpr node types evaluated directly from the product/sum formulas; every
# other node (Mul, Pow, Sum, Dilate) combines the values of its children.
ATOM_NODES = ("Const", "Q", "Pochhammer", "EtaF", "Phi", "Psi", "Theta")

# Module layers whose self time is reported; "cli" is split into import and
# the rest.  Spans named "trace" hold the tracer's own counting work.
MODULES = ("series", "qexpr", "identities", "oracle", "congruences", "registry")


def self_times(spans) -> list[float]:
    """Self time in seconds of every span, by the sweep in the module docstring."""
    events = []
    for i, (_, start, end, _) in enumerate(spans):
        if end <= start:  # nothing to attribute, and no child fits inside
            continue
        # at equal times: ends before starts, children end before parents and
        # parents start before children (a parent always has the lower index)
        events.append((start, 1, i))
        events.append((end, 0, -i))
    events.sort()
    selfs = [0.0] * len(spans)
    open_children = Counter()
    is_open = [False] * len(spans)
    leaves: set[int] = set()
    prev = None
    for t, starting, key in events:
        i = key if starting else -key
        if leaves and t != prev:
            share = (t - prev) / len(leaves)
            for leaf in leaves:
                selfs[leaf] += share
        prev = t
        parent = spans[i][3]
        has_parent = parent >= 0 and is_open[parent]
        if starting:
            is_open[i] = True
            leaves.add(i)
            if has_parent:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open[i] = False
            leaves.discard(i)
            if has_parent:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return [s / 1e9 for s in selfs]


def layer_metrics(spans, counters: dict, traced_wall_s: float) -> dict[str, float]:
    """The traced run's per-layer metrics, all but ``process.*`` and
    ``check_fail_ratio``, which the caller measures."""
    selfs = self_times(spans)
    names = [s[0] for s in spans]

    def dur(i: int) -> float:
        return (spans[i][2] - spans[i][1]) / 1e9

    def parent_name(i: int) -> str:
        p = spans[i][3]
        return names[p] if p >= 0 else ""

    def idx(name: str) -> list[int]:
        return [i for i, n in enumerate(names) if n == name]

    def self_sum(pred) -> float:
        return sum(selfs[i] for i, n in enumerate(names) if pred(n))

    evals = [i for i, n in enumerate(names) if n.startswith("qexpr.eval:")]
    eval_calls = len(evals)
    memo_growth = counters.get("qexpr.memo_size", 0) - counters.get("qexpr.memo_start", 0)
    # a table built inside another build (the DP convolution calls the
    # regular counter) is part of that build, not a build of its own
    builds = [i for i in idx("oracle.build") if parent_name(i) != "oracle.build"]
    build_s = sum(dur(i) for i in builds)
    loads, saves = idx("oracle.cache.load"), idx("oracle.cache.save")
    walks = idx("congruences.verify_family")
    registry_top = [i for i, n in enumerate(names)
                    if n.startswith("registry.") and not parent_name(i).startswith("registry.")]
    cases, chains = idx("identities.verify"), idx("identities.replay")

    m = {
        "series.mul.calls": len(idx("series.mul")),
        "series.mul.self_s": self_sum(lambda n: n == "series.mul"),
        "series.mul.pair_ops": counters.get("series.mul.pair_ops", 0),
        "series.mul.max_bits": counters.get("series.mul.max_bits", 0),
        "series.invert.calls": len(idx("series.invert")),
        "series.invert.self_s": self_sum(lambda n: n == "series.invert"),
        "series.pow.self_s": self_sum(lambda n: n == "series.pow"),
        "qexpr.eval.calls": eval_calls,
        "qexpr.eval.atom_self_s": self_sum(
            lambda n: n.startswith("qexpr.eval:") and n[11:] in ATOM_NODES),
        "qexpr.eval.composite_self_s": self_sum(
            lambda n: n.startswith("qexpr.eval:") and n[11:] not in ATOM_NODES),
        "qexpr.memo_hit_ratio": (eval_calls - memo_growth) / eval_calls if eval_calls else 0.0,
        "qexpr.memo_size": counters.get("qexpr.memo_size", 0),
        "identities.verify.calls": len(cases),
        "identities.verify.max_case_s": max((dur(i) for i in cases), default=0.0),
        "identities.replay.calls": len(chains),
        "identities.replay.max_chain_s": max((dur(i) for i in chains), default=0.0),
        "identities.stages": counters.get("identities.stages", 0),
        "oracle.builds": len(builds),
        "oracle.build_s": build_s,
        "oracle.build.max_s": max((dur(i) for i in builds), default=0.0),
        "oracle.entries_per_s": counters.get("oracle.entries", 0) / build_s if build_s else 0.0,
        "oracle.cache.loads": len(loads),
        "oracle.cache.load_s": sum(dur(i) for i in loads),
        "oracle.cache.load_bytes": counters.get("oracle.cache.load_bytes", 0),
        "oracle.cache.saves": len(saves),
        "oracle.cache.save_s": sum(dur(i) for i in saves),
        "oracle.cache.save_bytes": counters.get("oracle.cache.save_bytes", 0),
        "congruences.verify_family.calls": len(walks),
        "congruences.walk_s": sum(dur(i) for i in walks),
        "congruences.instances": counters.get("congruences.instances", 0),
        "registry.build_s": sum(dur(i) for i in registry_top),
        "cli.import_s": sum(dur(i) for i in idx("cli.import")),
        "cli.self_s": self_sum(lambda n: n == "cli.main"),
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = self_sum(lambda n, p=mod + ".": n.startswith(p))
    attributed = sum(m[f"{mod}.self_s"] for mod in MODULES) + m["cli.import_s"] + m["cli.self_s"]
    m["trace.wall_s"] = traced_wall_s
    m["trace.unattributed_s"] = traced_wall_s - attributed
    # tracing overhead: the tracer's own spans, the measured bookkeeping cost
    # of every traced call, and writing the spans out
    calls = sum(1 for n in names if n != "trace")
    overhead = (sum(dur(i) for i in idx("trace"))
                + calls * counters.get("trace.span_cost_ns", 0) / 1e9
                + counters.get("trace.dump_ns", 0) / 1e9)
    untraced = traced_wall_s - overhead
    m["trace.overhead_ratio"] = overhead / untraced if untraced > 0 else 0.0
    return m
