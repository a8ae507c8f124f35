"""Every name the benchmark tracer hooks must exist in the program.

bench/tracing.py patches kgunits by module and attribute path; a renamed
function would fail only a traced benchmark run.  This loads that file by
path, in this process, and resolves each of its targets.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("kgunits_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_target_resolves():
    tracing = _load_tracing()
    targets = list(tracing.SPAN_TARGETS.values())
    for pairs in tracing.COUNTER_TARGETS.values():
        targets.extend(pairs)
    targets.append(tracing.INVERSE_TARGET)
    assert len(targets) == 24
    for module, path in targets:
        _, attr, value = tracing.resolve(module, path)
        assert attr == path.rsplit(".", 1)[-1] and callable(value), (module, path)
