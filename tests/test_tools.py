import json
import sys
from pathlib import Path

from kgunits.presentations import parse_presentation
from reference_checks import load_by_path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_kernel_counts_on_a_cyclic_group(capsys):
    kernel_counts = load_by_path(TOOLS / "kernel_counts.py")
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


def _entry(pair, side, wall, rss, cpu=()):
    commands = [{"argv": ["verify", "--jobs", "2"], "cpu_s": c} for c in cpu]
    return {"pair": pair, "side": side, "report": {"commands": commands},
            "result": {"attempted": 4, "failed": 0, "metrics": {
                "wall_s": {"value": wall}, "peak_rss_mb": {"value": rss}}}}


def test_bench_pairs_summary_arithmetic():
    bench_pairs = load_by_path(TOOLS / "bench_pairs.py")
    walls = {"parent": [1.0, 2.0, 3.0, 4.0, 5.0], "change": [0.5, 2.0, 4.0, 2.5, 4.5]}
    entries = [_entry(k + 1, side, walls[side][k], 20.0, cpu=(walls[side][k],))
               for k in range(5) for side in ("change", "parent")]
    s = bench_pairs.metric_stats(entries, "wall_s", "lower")
    # pairs 1, 4 and 5 won, pair 3 lost, pair 2 a tie that counts for neither
    assert (s["pairs"], s["wins"], s["losses"]) == (5, 3, 1)
    assert s["parent_median"] == 3.0 and s["change_median"] == 2.5
    assert s["delta"] == -0.5 / 3
    # statistics.quantiles (exclusive) of 1..5: q1 1.5, q3 4.5
    assert s["parent_iqr"] == 3.0
    higher = bench_pairs.metric_stats(entries, "wall_s", "higher")
    assert (higher["wins"], higher["losses"]) == (1, 3)
    assert bench_pairs.cpu_medians(entries) == {
        "verify --jobs 2": {"parent": 3.0, "change": 2.5}}

    end_to_end = [{"name": "wall_s", "better": "lower", "bound": 0.25},
                  {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    lines = bench_pairs.summary("catalog", entries, end_to_end)
    assert lines[0] == "catalog: failed 0/20 parent, 0/20 change"
    # the parent's IQR is 100% of its median: wall_s is unresolved
    assert lines[1].startswith("  wall_s") and lines[1].endswith("spread > bound")
    assert "change won 3 of 5 (lost 1)" in lines[1]
    assert lines[2] == "    verdict: unresolved"
    assert lines[3].startswith("  peak_rss_mb") and "won 0 of 5" in lines[3]
    assert not lines[3].endswith("spread > bound")
    assert lines[4] == "    verdict: no regression"
    assert lines[5] == "  cpu_s verify --jobs 2: parent 3.0000  change 2.5000"
    assert len(bench_pairs.summary("scan", entries, end_to_end)) == 5

    def wall_verdict(parent, change):
        runs = [_entry(k + 1, side, walls[k], 20.0)
                for k in range(len(parent)) for side, walls in (("parent", parent),
                                                                ("change", change))]
        return bench_pairs.summary("scan", runs, end_to_end)[2].split(": ")[1]

    # a spread on the change side alone leaves the metric unresolved too
    assert wall_verdict([1.0] * 5, [1, 1, 0.5, 1.5, 1.5]) == "unresolved"
    # won every pair, by more than the parent's IQR of 0.1
    assert wall_verdict([1.0, 1.1, 1.0, 1.1, 1.0], [0.5, 0.6, 0.5, 0.6, 0.5]) == "gain"
    # won 9 of 10 pairs, then 8 of 10, under nine tenths
    assert wall_verdict([1.0, 1.1] * 5, [0.9] * 9 + [1.2]) == "gain"
    assert wall_verdict([1.0, 1.1] * 5, [0.9] * 8 + [1.2] * 2) == "no regression"
    # the median 1.3 is 30% worse, past the 25% bound
    assert wall_verdict([1.0] * 5, [1.3] * 5) == "worse"
    assert wall_verdict([1.0] * 5, [1.2] * 5) == "no regression"
    # the parent's IQR is 50% of its median, but every change run beats
    # every parent run; the medians differ by 2.4, under that IQR of 3
    assert wall_verdict([4, 5, 6, 7, 8], [3.9, 3.5, 3.0, 3.6, 3.8]) == "no regression"
    assert wall_verdict([4, 5, 6, 7, 8], [3.9, 3.5, 4.5, 3.6, 3.8]) == "unresolved"


def test_bench_pairs_counts_the_src_lines_of_both_trees(tmp_path):
    bench_pairs = load_by_path(TOOLS / "bench_pairs.py")
    trees = {"parent": {"a.py": "x\ny\n", "b.py": "z\n", "notes.txt": "n\n"},
             "change": {"a.py": "x\n", "b.py": ""}}
    for side, files in trees.items():
        package = tmp_path / side / "src" / "kgunits"
        package.mkdir(parents=True)
        for name, text in files.items():
            (package / name).write_text(text)
    (tmp_path / "change" / "tools.py").write_text("outside\nsrc\n")
    roots = {side: tmp_path / side for side in trees}
    assert bench_pairs.src_size(roots) == \
        "src/kgunits/*.py: parent 3 lines, change 1 lines (-2)"


def test_bench_pairs_keeps_the_first_set_when_a_workload_is_repeated():
    bench_pairs = load_by_path(TOOLS / "bench_pairs.py")
    # a file from before set numbers: its entries are of set 1
    first = {w: [_entry(1, side, 1.0, 20.0) for side in ("parent", "change")]
             for w in ("catalog", "scan", "queries")}
    repeat = {"queries": [_entry(1, side, 2.0, 21.0) for side in ("change", "parent")]}
    merged = bench_pairs.merge_sets(first, repeat)
    assert merged == {**first, "queries": first["queries"] + [
        {**e, "set": 2} for e in repeat["queries"]]}
    third = bench_pairs.merge_sets(merged, repeat)
    assert [e.get("set", 1) for e in third["queries"]] == [1, 1, 2, 2, 3, 3]
    # with no file yet, the runs are set 1
    assert bench_pairs.merge_sets({}, repeat) == {
        "queries": [{**e, "set": 1} for e in repeat["queries"]]}


def test_bench_pairs_top_level_describes_every_set_alike():
    bench_pairs = load_by_path(TOOLS / "bench_pairs.py")
    # a first set of 2 pairs, then a repeat set of 3 pairs of one workload
    first = {w: [_entry(k, side, 1.0, 20.0) for k in (1, 2) for side in ("parent", "change")]
             for w in ("catalog", "scan", "queries")}
    repeat = {"scan": [_entry(k, side, 2.0, 21.0) for k in (1, 2, 3)
                       for side in ("parent", "change")]}
    once = bench_pairs.document("abc1234", {}, first)
    twice = bench_pairs.document("abc1234", once["workloads"], repeat)
    assert [e["set"] for e in twice["workloads"]["scan"]] == [1] * 4 + [2] * 6
    top = {k: v for k, v in twice.items() if k != "workloads"}
    assert top == {k: v for k, v in once.items() if k != "workloads"}
    assert top["environment"] == {"PYTHONDONTWRITEBYTECODE": "1"}
    assert "pairs per workload" not in top["note"]


def test_check_interpreters_matches_the_goldens_under_this_python(capsys):
    check_interpreters = load_by_path(TOOLS / "check_interpreters.py")
    assert check_interpreters.main([sys.executable]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"{sys.executable} {name}: ok"
                     for name in ("table", "verify", "scan-iso")]


def test_check_interpreters_exits_1_on_a_difference_or_a_missing_python(
        capsys, monkeypatch, tmp_path):
    check_interpreters = load_by_path(TOOLS / "check_interpreters.py")
    missing = str(tmp_path / "no-python")
    assert check_interpreters.main([missing]) == 1
    assert capsys.readouterr().out.startswith(f"{missing}: cannot run: ")
    monkeypatch.setattr(check_interpreters, "run",
                        lambda python, argv: ({"exit": 1, "sha256": "0" * 64}, b""))
    assert check_interpreters.main(["python"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("python table: exit 1, sha256 000000000000 (golden: exit 0, ")
    # the golden stdout, but one line on stderr from the verify run
    golden = json.loads((TOOLS.parent / "bench" / "golden.json").read_text())
    monkeypatch.setattr(check_interpreters, "run", lambda python, argv: (
        golden[argv[0]], b"warning: child\n" if argv[0] == "verify" else b""))
    assert check_interpreters.main(["python"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "python table: ok", "python verify: stderr b'warning: child'",
        "python scan-iso: ok"]
