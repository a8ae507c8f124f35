import importlib.util
from pathlib import Path

from kgunits.presentations import parse_presentation

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_counts_on_a_cyclic_group(capsys):
    kernel_counts = _load("kernel_counts")
    outcome, calls, opcodes = kernel_counts.kernel_counts(parse_presentation("a | a^12"), 100)
    assert outcome == 12
    assert calls["coset_table"] == calls["check_coset_table"] == 1
    assert set(opcodes) <= set(calls) and opcodes["coset_table"] > 0
    # the counts depend only on the code and the input
    assert kernel_counts.kernel_counts(parse_presentation("a | a^12"), 100) \
        == (outcome, calls, opcodes)
    capped, _, _ = kernel_counts.kernel_counts(parse_presentation("a | a^12"), 5)
    assert capped.startswith("coset cap 5 exceeded")

    assert kernel_counts.main(["a | a^12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "a | a^12: 12"
    assert lines[-1].split()[-1] == "total"
    rows = [line.split() for line in lines[2:]]
    assert sum(int(row[1].replace(",", "")) for row in rows[:-1]) \
        == int(rows[-1][1].replace(",", "")) == sum(opcodes.values())
