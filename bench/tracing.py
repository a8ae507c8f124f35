"""In-memory spans and kernel counters around kgunits' public functions.

The tracer patches the program from outside: it replaces each listed
function or method with a wrapper that records a span (name, start, end,
parent, query id) and, for the arithmetic kernels, a wrapper that only
increments a counter.  A function is patched at every kgunits module that
binds it, so `catalog.decompose_abelian` is traced as well as
`decompose.decompose_abelian`.  Nothing inside the program changes.

Per-layer metrics are computed from the spans when the run ends.  A `total`
metric is the time covered by a family's outermost spans; a `self` metric
subtracts the time covered by the spans' direct children.  A target the
tracer cannot bind, or a sample metric a workload should yield without the
samples for it, makes the traced run fail rather than read 0.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import time

# span name -> (module, attribute path).  Spans are recorded for each call.
SPAN_TARGETS = {
    "units.build": ("kgunits.units", "UnitGroup.__init__"),
    "units.spectrum": ("kgunits.units", "UnitGroup.unit_order_spectrum"),
    # the order list is where the spectrum is computed; recognize_dihedral
    # reaches it without going through unit_order_spectrum
    "units.order_list": ("kgunits.units", "UnitGroup._order_list"),
    "units.invariants": ("kgunits.units", "UnitGroup.abelian_invariants"),
    "units.dihedral": ("kgunits.units", "UnitGroup.recognize_dihedral"),
    "units.closure": ("kgunits.units", "UnitGroup.closure"),
    "algebra.enumerate_units": ("kgunits.algebra", "enumerate_units"),
    "presentations.certify_from_source": ("kgunits.presentations", "certify_from_source"),
    "presentations.certify": ("kgunits.presentations", "certify_unit_group_presentation"),
    "presentations.coset_enumeration": ("kgunits.presentations", "coset_enumeration"),
    "decompose.decompose_abelian": ("kgunits.decompose", "decompose_abelian"),
    "fields.factor_monic": ("kgunits.fields", "factor_monic"),
    "isoprobe.bundle": ("kgunits.isoprobe", "bundle"),
    "isoprobe.explicit_isomorphism": ("kgunits.isoprobe", "explicit_isomorphism"),
    "isoprobe.compare_unit_groups": ("kgunits.isoprobe", "compare_unit_groups"),
    "catalog.build_row": ("kgunits.catalog", "build_row"),
    "catalog.verify_catalog": ("kgunits.catalog", "verify_catalog"),
    "cli.main": ("kgunits.cli", "main"),
}

# counter name -> (module, attribute path).  Counted, never spanned: these
# run millions of times.
COUNTER_TARGETS = {
    "fields.mul_count": [("kgunits.fields", "FieldElement.__mul__")],
    "fields.add_count": [("kgunits.fields", "FieldElement.__add__"),
                         ("kgunits.fields", "FieldElement.__sub__")],
    "fields.inverse_count": [("kgunits.fields", "FieldElement.inverse")],
    "algebra.mul_count": [("kgunits.algebra", "AlgebraElement.__mul__")],
}
INVERSE_TARGET = ("kgunits.algebra", "AlgebraElement.try_inverse")

# per-layer metric -> (mode, span names).  Modes: total, self, count.
SPAN_METRICS = {
    "units.spectrum_s": ("total", ("units.spectrum", "units.order_list")),
    "units.enumerate_s": ("total", ("units.build",)),
    "algebra.enumerate_units_s": ("total", ("algebra.enumerate_units",)),
    "units.build_count": ("count", ("units.build",)),
    "units.invariants_s": ("self", ("units.invariants",)),
    "units.dihedral_s": ("self", ("units.dihedral",)),
    "units.closure_s": ("total", ("units.closure",)),
    "presentations.certify_s": ("total", ("presentations.certify_from_source",
                                          "presentations.certify")),
    "presentations.coset_enum_s": ("total", ("presentations.coset_enumeration",)),
    "presentations.coset_enum_count": ("count", ("presentations.coset_enumeration",)),
    "decompose.decompose_s": ("total", ("decompose.decompose_abelian",)),
    "decompose.factor_s": ("total", ("fields.factor_monic",)),
    "decompose.decompose_count": ("count", ("decompose.decompose_abelian",)),
    "isoprobe.bundle_s": ("self", ("isoprobe.bundle",)),
    "isoprobe.explicit_iso_s": ("total", ("isoprobe.explicit_isomorphism",)),
    "isoprobe.compare_s": ("total", ("isoprobe.compare_unit_groups",)),
    "catalog.build_row_s": ("total", ("catalog.build_row",)),
    "catalog.verify_s": ("total", ("catalog.verify_catalog",)),
    "cli.self_s": ("self", ("cli.main",)),
}
# spans whose first argument is an algebra; its label is kept, for
# units.build_distinct
_LABELLED = {"units.build"}


def resolve(module: str, path: str):
    """(owner, attribute name, current value) for module + dotted path."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def rebind(module: str, path: str, make_wrapper) -> bool:
    """Replace the object at module.path, and every kgunits alias of it.

    Returns False when the name does not exist: a later version of the
    program may have renamed it, and tracing.py must follow.
    """
    try:
        owner, attr, original = resolve(module, path)
    except (AttributeError, ImportError):
        return False
    wrapper = make_wrapper(original)
    setattr(owner, attr, wrapper)
    if "." not in path:
        for name, mod in list(sys.modules.items()):
            if (name == "kgunits" or name.startswith("kgunits.")) \
                    and getattr(mod, attr, None) is original:
                setattr(mod, attr, wrapper)
    return True


class Tracer:
    """Spans and counters for one process.  Single-threaded use only."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []     # (name, start, end, parent index, query id)
        self.labels: dict[int, str] = {}
        self.stack: list[int] = []
        self.query = None
        self.counters = {name: itertools.count() for name in COUNTER_TARGETS}
        self.inverse_attempts = itertools.count()
        self.inverse_units = itertools.count()
        self.unbound: list[str] = []

    # -- recording ---------------------------------------------------------

    def span_wrapper(self, name: str, fn):
        spans, stack, labels, clock = self.spans, self.stack, self.labels, self.clock
        labelled = name in _LABELLED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if labelled and len(args) > 1:
                labels[index] = args[1].label()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.query)
        return traced

    @staticmethod
    def counter_wrapper(tick, fn):
        @functools.wraps(fn)
        def counted(*args):
            tick()
            return fn(*args)
        return counted

    def install(self) -> None:
        """Patch every target.  Call before the program does any work."""
        for name, (module, path) in SPAN_TARGETS.items():
            if not rebind(module, path, lambda fn, n=name: self.span_wrapper(n, fn)):
                self.unbound.append(f"{module}.{path}")
        for name, targets in COUNTER_TARGETS.items():
            tick = self.counters[name].__next__
            for module, path in targets:
                if not rebind(module, path, lambda fn: self.counter_wrapper(tick, fn)):
                    self.unbound.append(f"{module}.{path}")
        attempts, units = self.inverse_attempts.__next__, self.inverse_units.__next__

        def make_inverse(fn):
            @functools.wraps(fn)
            def try_inverse(self_, *args):
                attempts()
                out = fn(self_, *args)
                if out is not None:
                    units()
                return out
            return try_inverse
        if not rebind(*INVERSE_TARGET, make_inverse):
            self.unbound.append(".".join(INVERSE_TARGET))

    # -- reading -----------------------------------------------------------

    def final_counts(self) -> dict[str, int]:
        """Counter values; reading advances the counters, so call it once."""
        out = {name: next(c) for name, c in self.counters.items()}
        out["algebra.inverse_count"] = next(self.inverse_attempts)
        out["algebra.inverse_units"] = next(self.inverse_units)
        return out


def total_time(spans, names) -> float:
    """Time covered by spans named in `names` with no ancestor in `names`."""
    names = set(names)
    out = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        p = parent
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            out += end - start
    return out


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def span_metrics(spans) -> dict[str, float]:
    """Every entry of SPAN_METRICS, computed from one process's closed spans."""
    selfs = self_times(spans)
    out = {}
    for metric, (mode, names) in SPAN_METRICS.items():
        idx = [i for i, s in enumerate(spans) if s[0] in names]
        if mode == "total":
            out[metric] = total_time(spans, names)
        elif mode == "self":
            out[metric] = sum(selfs[i] for i in idx)
        else:
            out[metric] = len(idx)
    return out


def durations(spans, name, query_kinds=None, kind=None) -> list[float]:
    """Durations in seconds of spans called `name`, optionally of one query kind."""
    return [end - start for n, start, end, _, q in spans
            if n == name and (kind is None or query_kinds.get(q) == kind)]


def percentile(samples, q: float, beyond: int = 10):
    """Nearest-rank q-quantile, or None unless `beyond` samples lie above it."""
    xs = sorted(samples)
    if not xs:
        return None
    # k = ceil(q * n) - 1 in integers: 0.95 * 200 is 190.00000000000003
    k = max(0, -(-round(q * 1000) * len(xs) // 1000) - 1)
    if len(xs) - k - 1 < beyond:
        return None
    return xs[k]


# per-layer metrics read from span durations: metric -> (span, query kind, stat)
SAMPLE_METRICS = {
    "catalog.row_p50_ms": ("catalog.build_row", None, "p50"),
    "catalog.row_max_ms": ("catalog.build_row", None, "max"),
    "cli.unit_group_p50_ms": ("cli.main", "unit-group", "p50"),
    "cli.decompose_p50_ms": ("cli.main", "decompose", "p50"),
    "cli.coset_count_p50_ms": ("cli.main", "coset-count", "p50"),
}


def process_summary(tracer: Tracer, query_kinds: dict) -> dict:
    """What one traced process hands back: additive sums, samples, labels."""
    spans = tracer.spans
    sums = span_metrics(spans)
    sums.update(tracer.final_counts())
    sums["cli.total_s"] = total_time(spans, ("cli.main",))
    samples = {m: durations(spans, name, query_kinds, kind)
               for m, (name, kind, _) in SAMPLE_METRICS.items()}
    labels = [tracer.labels[i] for i, s in enumerate(spans)
              if s[0] == "units.build" and i in tracer.labels]
    return {"sums": sums, "samples": samples, "labels": labels,
            "span_count": len(spans), "unbound": tracer.unbound}


def merge_summaries(parts: list[dict]) -> dict:
    """Per-layer metrics over the traced processes of one workload run.

    A sample metric without the samples its statistic needs is None.
    """
    sums: dict = dict.fromkeys([*SPAN_METRICS, *COUNTER_TARGETS, "algebra.inverse_count",
                                "algebra.inverse_units", "cli.total_s"], 0)
    samples: dict = {m: [] for m in SAMPLE_METRICS}
    labels: set = set()
    for part in parts:
        for k, v in part["sums"].items():
            sums[k] += v
        for k, v in part["samples"].items():
            samples[k] += v
        labels.update(part["labels"])
    out = {k: v for k, v in sums.items()
           if k not in ("algebra.inverse_units", "cli.total_s")}
    attempts = sums["algebra.inverse_count"]
    out["algebra.unit_yield"] = sums["algebra.inverse_units"] / attempts if attempts else 0.0
    out["units.build_distinct"] = len(labels)
    # share of the first (main) traced command; a pool's workers are untraced
    main = parts[0]["sums"] if parts else {}
    cli_total = main.get("cli.total_s", 0.0)
    out["units.spectrum_share"] = main.get("units.spectrum_s", 0.0) / cli_total if cli_total else 0.0
    for metric, (_, _, stat) in SAMPLE_METRICS.items():
        xs = samples[metric]
        value = max(xs, default=None) if stat == "max" else percentile(xs, 0.5)
        out[metric] = 1000 * value if value is not None else None
    return out


def per_layer(parts: list[dict], sampled) -> tuple[dict, list[str]]:
    """(per-layer metrics, problems) of one workload run's traced processes.

    `sampled` names the sample metrics the workload must yield.  Another
    sample metric without samples reads 0: the workload makes no such call,
    on any version of the program.  A sample metric of `sampled` without
    enough samples, and a target the tracer could not bind, are problems:
    their metrics would read 0 and look like a win.
    """
    values = merge_summaries(parts)
    problems = [f"tracing target not found: {name}"
                for name in sorted({u for p in parts for u in p["unbound"]})]
    for name in SAMPLE_METRICS:
        if values[name] is None:
            values[name] = 0.0
            if name in sampled:
                problems.append(f"too few samples for {name}")
    return values, problems


def unit_of(metric: str) -> str:
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_yield", "_share")):
        return "ratio"
    return "count"
