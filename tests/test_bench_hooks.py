"""Every name the benchmark tracer hooks must exist in the program.

bench/tracing.py patches kgunits by module and attribute path; a renamed
function would fail only a traced benchmark run.  This loads that file by
path, in this process, and resolves each of its targets.  It also checks
that the unit census runs inside the traced enumerate_units, so that
algebra.enumerate_units_s measures it, and that the isomorphism scan takes
every algebra's invariants through the traced bundle.
"""

import sys
from pathlib import Path

from kgunits.isoprobe import scan_minimum_counterexample
from kgunits.units import UnitGroup
from reference_checks import load_by_path, make_algebra

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_every_tracing_target_resolves():
    tracing = load_by_path(TRACING)
    targets = list(tracing.SPAN_TARGETS.values())
    for pairs in tracing.COUNTER_TARGETS.values():
        targets.extend(pairs)
    targets.append(tracing.INVERSE_TARGET)
    assert len(targets) == 24
    for module, path in targets:
        _, attr, value = tracing.resolve(module, path)
        assert attr == path.rsplit(".", 1)[-1] and callable(value), (module, path)


def _trace(monkeypatch, tracing, tracer, name):
    """Wrap one span target as tracing.rebind does: at every kgunits module
    that binds the function."""
    _, attr, original = tracing.resolve(*tracing.SPAN_TARGETS[name])
    traced = tracer.span_wrapper(name, original)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "kgunits" and getattr(module, attr, None) is original:
            monkeypatch.setattr(module, attr, traced)


def test_unit_census_runs_under_the_traced_enumerate_units(monkeypatch):
    tracing = load_by_path(TRACING)
    tracer = tracing.Tracer()
    name = "algebra.enumerate_units"
    _trace(monkeypatch, tracing, tracer, name)
    alg = make_algebra(2, 1, "D8")
    units = UnitGroup(alg)
    assert [span[0] for span in tracer.spans] == [name]
    assert tracing.span_metrics(tracer.spans)["algebra.enumerate_units_s"] > 0
    # the orders come out of that call: reading them multiplies nothing
    real = alg.mul_codes
    products = []
    monkeypatch.setattr(alg, "mul_codes", lambda a, b: products.append(1) or real(a, b))
    assert len(units._order_list()) == units.order == 128
    assert units.unit_order_spectrum()
    assert products == []


def test_the_scan_takes_every_bundle_through_the_traced_bundle(monkeypatch):
    tracing = load_by_path(TRACING)
    tracer = tracing.Tracer()
    _trace(monkeypatch, tracing, tracer, "isoprobe.bundle")
    assert scan_minimum_counterexample(1024).pair_count == 17
    # one span per scanned algebra: 19 algebras in 8 (field, order) shapes
    assert [span[0] for span in tracer.spans] == ["isoprobe.bundle"] * 19
    assert "isoprobe.bundle_s" in tracing.span_metrics(tracer.spans)
