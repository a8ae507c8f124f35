import hashlib
import json
import multiprocessing
import os
import re
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import kgunits
from kgunits import cli
from kgunits.catalog import CatalogRow, map_jobs, verify_catalog
from kgunits.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_unit_group_text(capsys):
    code, out, err = run_cli(capsys, "unit-group", "F4", "C4")
    assert code == 0 and err == ""
    assert "U(F4C4): order 192" in out
    assert "structure: C2^2 x C4^2 x C3" in out
    assert "spectrum: 1:1 2:15 3:2 4:48 6:30 12:96" in out


def test_unit_group_json(capsys):
    code, out, err = run_cli(capsys, "unit-group", "F4", "C4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["unit_count"] == 192
    assert payload["structure"] == "C2^2 x C4^2 x C3"
    spectrum = {order: count for order, count in payload["spectrum"]}
    assert spectrum[12] == 96


def test_decompose_text(capsys):
    code, out, err = run_cli(capsys, "decompose", "F3", "C4")
    assert code == 0
    assert "F3^2 + F9" in out
    assert "unit order from blocks: 32" in out


def test_decompose_json(capsys):
    code, out, err = run_cli(capsys, "decompose", "F2", "C6", "--format", "json")
    payload = json.loads(out)
    assert payload["decomposition"] == "F2[C2] + F4[C2]"
    assert sum(b["dimension"] for b in payload["blocks"]) == 6


def test_coset_count(capsys):
    code, out, err = run_cli(capsys, "coset-count", "w,y | w^6, y^2, y*w*y*w^-5")
    assert code == 0
    assert "12" in out
    code, out, err = run_cli(capsys, "coset-count", "x, y | x^3, y^2, [x,y] = x")
    assert "6" in out


def test_coset_count_limit(capsys):
    code, out, err = run_cli(capsys, "coset-count", "x, y | x^2", "--limit", "40")
    assert code == 2
    assert err.startswith("error:")


def _assert_capped_in_little_memory(capsys, monkeypatch, presentation):
    """coset-count of the presentation under --limit 10 exits 2 in-process,
    starts no process, and peaks below 2 MiB of traced memory."""
    def no_process(*args, **kwargs):
        raise AssertionError("coset-count started a process")
    monkeypatch.setattr(subprocess, "Popen", no_process)
    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_process)
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "coset-count", presentation, "--limit", "10")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and out == ""
    assert err.startswith("error: coset cap 10 exceeded")
    assert peak < 2 * 2 ** 20


def test_coset_cap_applies_before_a_power_is_written_out(capsys, monkeypatch):
    # a^3000000 is one run: memory must not grow with the exponent typed
    _assert_capped_in_little_memory(capsys, monkeypatch, "a | a^3000000")


def test_a_conjugate_power_is_not_written_out(capsys, monkeypatch):
    # (x y x^-1)^3000000 reduces to the three runs x y^3000000 x^-1
    _assert_capped_in_little_memory(capsys, monkeypatch,
                                    "x, y | (x*y*x^-1)^3000000")


def test_out_of_memory_exits_2_with_one_error_line(capsys, monkeypatch):
    """A command that runs out of memory is bad input, not a mismatch."""
    def exhausted(presentation, limit):
        raise MemoryError
    monkeypatch.setattr(cli, "coset_enumeration", exhausted)
    code, out, err = run_cli(capsys, "coset-count", "a | a^4")
    assert code == 2
    assert out == ""
    assert err == "error: out of memory\n"


def test_table_text_shape(capsys):
    code, out, err = run_cli(capsys, "table", "--bound", "30")
    assert code == 0
    lines = out.rstrip("\n").split("\n")
    assert lines[0] == "unit groups of group algebras with size below 30 (24 rows)"
    assert lines[1].split() == ["field", "group", "size", "|U|", "decomposition",
                                "structure", "method"]
    assert len(lines) == 26
    assert lines[2].split() == ["F2", "C1", "2", "1", "F2", "C1", "decomposition"]


def test_table_json_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "table", "--bound", "100", "--format", "json")
    _, second, _ = run_cli(capsys, "table", "--bound", "100", "--format", "json")
    assert first == second
    rows = json.loads(first)["rows"]
    assert len(rows) == 52
    assert rows == sorted(rows, key=lambda r: (r["size"], r["p"] ** r["k"], r["group"]))


def test_table_jobs_equality(capsys):
    _, seq, _ = run_cli(capsys, "table", "--bound", "64", "--format", "json")
    _, par, _ = run_cli(capsys, "table", "--bound", "64", "--format", "json",
                        "--jobs", "2")
    assert seq == par


@pytest.mark.parametrize("argv,started", [
    (("table", "--bound", "3", "--jobs", "8"), []),                 # 1 row
    (("table", "--bound", "100", "--jobs", "500"), ["fork"] * 51),  # 52 rows
    (("table", "--bound", "100", "--jobs", "2"), ["fork"]),
    (("verify", "--bound", "100", "--jobs", "2"), ["fork"]),
    (("verify", "--jobs", "2"), ["fork"]),   # 243 rows: the catalog workload's split
])
def test_jobs_start_at_most_one_worker_per_task(capsys, monkeypatch, argv, started):
    """--jobs N forks min(N, rows) - 1 children, and the caller builds the
    rest, so no process gets no row."""
    _, want, _ = run_cli(capsys, *argv[:-2], "--format", "json")
    forks, real_fork = [], os.fork

    def counted_fork():
        forks.append("fork")
        return real_fork()
    monkeypatch.setattr(os, "fork", counted_fork)
    _, got, _ = run_cli(capsys, *argv, "--format", "json")
    assert forks == started
    assert got == want


def test_fork_split_keeps_item_order():
    """map_jobs is the list comprehension on 1 to 5 processes, also when
    the rows do not divide evenly among them."""
    for jobs in range(1, 6):
        for n in (0, 1, 2, 3, 7, 11):
            items = list(range(-n, n, 2))
            assert map_jobs(abs, items, jobs) == [abs(x) for x in items], (jobs, n)


def test_an_exception_in_a_childs_share_is_raised_by_the_caller():
    def fn(x):
        if x == 4:  # item 4 of 6 on 3 processes: child 1's share
            raise ValueError(f"no row for {x}")
        return x
    with pytest.raises(ValueError) as exc:
        map_jobs(fn, list(range(6)), 3)
    assert exc.type is ValueError and str(exc.value) == "no row for 4"


def test_every_child_is_reaped_when_the_callers_share_raises():
    def fn(x):
        if x == 0:  # the caller's share
            raise KeyError("caller")
        time.sleep(0.2)  # the children outlive the caller's failure
        return x
    with pytest.raises(KeyError, match="caller"):
        map_jobs(fn, list(range(8)), 4)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_fork_split_leaves_no_warning_in_dev_mode(tmp_path):
    """Under -X dev -W error an unclosed pipe or file would be a
    ResourceWarning turned into an error on stderr."""
    proc = subprocess.run([sys.executable, "-X", "dev", "-W", "error", "-m",
                           "kgunits", "verify", "--bound", "100", "--jobs", "2"],
                          capture_output=True, cwd=tmp_path, env=_uninstalled_env(),
                          timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == b""


def test_verify_exit_zero(capsys):
    code, out, err = run_cli(capsys, "verify", "--bound", "200")
    assert code == 0
    assert "81/81" in out or "matched 81" in out or "81 of 81" in out


def test_scan_iso_text(capsys):
    code, out, err = run_cli(capsys, "scan-iso", "--bound", "700")
    assert code == 0
    assert out.startswith("minimum isomorphic pair: F5 C4 ~ C2xC2 at size 625")
    assert "pairs examined: 16 (expected 16); inconclusive: 0" in out
    assert "D8" in out and "Q8" in out
    assert "notes on unit groups of the nonabelian pairs:" in out


def test_scan_iso_json(capsys):
    code, out, err = run_cli(capsys, "scan-iso", "--bound", "300", "--format", "json")
    payload = json.loads(out)
    assert payload["minimum"] is None
    # one pair each at 16, 64, 81; at 256, ten F2 pairs of order-8 groups
    # plus F4 C4 / C2xC2
    assert payload["pair_count"] == 14


@pytest.mark.parametrize("argv", [
    ("unit-group", "F6", "C2"),
    ("unit-group", "F2", "C37"),
    ("unit-group", "F5", "C5"),      # size 3125 is past the enumeration cap
    ("decompose", "F2", "D8"),
    ("coset-count", "x | x^"),
    ("coset-count", "x y | x"),      # each generator is one name token
    ("coset-count", "1a | a"),
    ("coset-count", "a,,b | a"),     # an empty name, rejected before enumeration
])
def test_error_paths_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert out == ""


@pytest.mark.parametrize("command,label", [
    ("decompose", "F\u0663"),   # an Arabic-Indic digit three
    ("unit-group", "F02"),
    ("unit-group", "F\u00b2"),  # a superscript two
    ("unit-group", "F0"),
    ("unit-group", "F"),
])
def test_field_labels_that_label_never_writes_exit_2(capsys, command, label):
    code, out, err = run_cli(capsys, command, label, "C2")
    assert code == 2 and out == ""
    assert err == f"error: field label must look like F9, got {label!r}\n"


@pytest.mark.parametrize("command", ["unit-group", "decompose"])
@pytest.mark.parametrize("size", ["1000000000000000003", "1025"])
def test_field_labels_past_the_bound_are_refused_before_factoring(
        capsys, command, size):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, f"F{size}", "C1")
    assert time.perf_counter() - start < 1
    assert code == 2 and out == ""
    assert err == f"error: field size {size} out of supported range (< 1024)\n"


@pytest.mark.parametrize("command", ["unit-group", "decompose"])
@pytest.mark.parametrize("field,group,size", [
    ("F4", "C5", 1024), ("F32", "C2", 1024), ("F5", "D6", 15625)])
def test_algebras_past_the_bound_are_refused_in_one_message(
        capsys, command, field, group, size):
    code, out, err = run_cli(capsys, command, field, group)
    assert code == 2 and out == ""
    assert err == (f"error: {field}{group} has size {size}, outside the "
                   "catalog bound 1024\n")


def test_the_coset_count_depends_on_relator_order(capsys):
    """C30 x C30 with its commutator last defines more cosets than the
    default cap of 20,000 (it needs --limit 24419); with the commutator
    first, or written as a*b = b*a, it fits."""
    code, out, err = run_cli(capsys, "coset-count", "a, b | a^30, b^30, [a,b]")
    assert code == 2 and out == ""
    assert err == ("error: coset cap 20000 exceeded; group is possibly "
                   "infinite or the cap too low\n")
    for text in ("a, b | [a,b], a^30, b^30", "a, b | a^30, b^30, a*b = b*a"):
        assert run_cli(capsys, "coset-count", text) == (0, "900\n", "")


@pytest.mark.parametrize("text", [
    "a | a^\u0663",   # an Arabic-Indic digit three
    "a | a^\u00b2",   # a superscript two
])
def test_presentation_exponents_take_ascii_digits_only(capsys, text):
    code, out, err = run_cli(capsys, "coset-count", text)
    assert code == 2 and out == ""
    assert err == (f"error: unexpected character {text[-1]!r} at position 3 "
                   f"in {text[3:]!r}\n")


def test_unknown_label_message_is_not_quoted(capsys):
    code, out, err = run_cli(capsys, "unit-group", "F2", "X")
    assert code == 2 and out == ""
    assert err == "error: unknown group label 'X'\n"


@pytest.mark.parametrize("argv,message", [
    (("table", "--bound", "0"), "argument --bound: must be at least 2, got 0"),
    (("table", "--bound", "1"), "argument --bound: must be at least 2, got 1"),
    (("scan-iso", "--bound", "-3"), "argument --bound: must be at least 2, got -3"),
    (("verify", "--bound", "-5"), "argument --bound: must be at least 2, got -5"),
    (("table", "--jobs", "0"), "argument --jobs: must be at least 1, got 0"),
    (("verify", "--jobs", "-1"), "argument --jobs: must be at least 1, got -1"),
    (("scan-iso", "--jobs", "2"), "unrecognized arguments: --jobs 2"),
    (("verify", "--bound", "1100", "--jobs", "2"),
     "argument --bound: must be at most 1024 (the bound of the published catalog"),
    (("coset-count", "x | x", "--limit", "0"), "argument --limit: must be at least 1, got 0"),
    (("coset-count", "x | x^3", "--limit", "-5"),
     "argument --limit: must be at least 1, got -5"),
])
def test_bad_bound_and_jobs_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert message in captured.err
    assert captured.out == ""


def test_extreme_accepted_bounds(capsys):
    code, out, err = run_cli(capsys, "table", "--bound", "2", "--jobs", "1")
    assert code == 0 and err == ""
    assert out.startswith("unit groups of group algebras with size below 2 (0 rows)")
    parse = cli._build_parser().parse_args
    for command in ("table", "verify", "scan-iso"):
        assert parse([command, "--bound", "1024"]).bound == 1024
        # the catalog stops at 1024, so a larger bound would drop algebras
        for bound in ("1025", "1100"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--bound", bound])
            captured = capsys.readouterr()
            assert exc.value.code == 2 and captured.out == ""
            assert captured.err.splitlines()[-1] == (
                f"kgunits {command}: error: argument --bound: must be at most "
                f"1024 (the bound of the published catalog), got {bound}")


def test_verify_text_names_each_inconsistency(capsys, monkeypatch):
    bad = CatalogRow(field="F2", p=2, k=1, group="C2", size=4,
                     decomposition=None, unit_count=2, structure="C3",
                     method="enumeration", method_detail="hand-built",
                     published=None)
    report = verify_catalog(rows=(bad,))
    assert report.exit_code == 2
    assert report.inconsistency_lines == (
        "INCONSISTENT F2 C2: structure C3 implies order 3, unit count is 2",)
    monkeypatch.setattr(cli, "verify_catalog", lambda bound, jobs: report)
    code, out, err = run_cli(capsys, "verify", "--bound", "10")
    assert code == 2
    lines = out.rstrip("\n").split("\n")
    assert lines[-2] == report.inconsistency_lines[0]
    assert lines[-1].endswith("0 mismatches; 1 inconsistencies")


def _declared_entry_point() -> tuple[str, str]:
    """The module and function that pyproject.toml declares as `kgunits`."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    match = re.search(r'^\[project\.scripts\][^\[]*?^kgunits\s*=\s*"([\w.]+):(\w+)"',
                      text, re.MULTILINE | re.DOTALL)
    assert match, "pyproject.toml declares no kgunits script"
    return match.group(1), match.group(2)


def _uninstalled_env() -> dict:
    """The environment of a child process that imports the package under
    test from its source tree, installed or not."""
    package_root = str(Path(kgunits.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}


def test_installed_script(capsys, tmp_path):
    """The declared `kgunits` script, run in its own process as the console
    script pip generates would run it, needs no installed package."""
    module, function = _declared_entry_point()
    script = [sys.executable, "-c",
              f"import sys; from {module} import {function}; sys.exit({function}())"]
    env = _uninstalled_env()

    def run(*argv):
        return subprocess.run(argv, capture_output=True, cwd=tmp_path, env=env,
                              timeout=120)

    code, expected, _ = run_cli(capsys, "table", "--bound", "10")
    assert code == 0

    proc = run(*script, "table", "--bound", "10")
    assert proc.returncode == 0
    assert proc.stderr == b""
    assert proc.stdout == expected.encode()

    as_module = run(sys.executable, "-m", "kgunits", "table", "--bound", "10")
    assert as_module.returncode == 0
    assert as_module.stdout == proc.stdout

    bad = run(*script, "unit-group", "F6", "C2")
    assert bad.returncode == 2
    assert bad.stderr.startswith(b"error:")
    assert bad.stdout == b""


@pytest.mark.parametrize("argv", [
    ("verify",), ("table", "--format", "json"),
    ("unit-group", "F2", "C2"),  # short enough to reach the pipe only when flushed
])
def test_a_closed_output_exits_2_with_one_error_line(tmp_path, argv):
    """The reader of stdout is gone before the command writes: the command
    exits 2 with one error line, and neither its writes nor the exit flush
    print a traceback.  stdout is block-buffered, as from a shell."""
    env = _uninstalled_env()
    env.pop("PYTHONUNBUFFERED", None)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "kgunits", *argv],
                              stdout=write, stderr=subprocess.PIPE, cwd=tmp_path,
                              env=env, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == b"error: output closed before the command finished\n"


def _fresh_run_matches_golden(tmp_path, command, *argv):
    golden = json.loads((Path(__file__).resolve().parents[1] / "bench"
                         / "golden.json").read_text())[command]
    proc = subprocess.run([sys.executable, "-m", "kgunits", command, *argv,
                           "--format", "json"],
                          capture_output=True, cwd=tmp_path, env=_uninstalled_env(),
                          timeout=120)
    assert proc.stderr == b""
    assert {"exit": proc.returncode,
            "sha256": hashlib.sha256(proc.stdout).hexdigest()} == golden


def test_scan_iso_in_a_fresh_process_matches_golden(tmp_path):
    """scan-iso in its own process, with only the imports that command
    makes, prints the bytes bench/golden.json records for it."""
    _fresh_run_matches_golden(tmp_path, "scan-iso")


def test_verify_on_two_workers_in_a_fresh_process_matches_golden(tmp_path):
    """verify --jobs 2 in its own process, its 243 rows built half by the
    process and half by one forked child, prints the bytes bench/golden.json
    records for it."""
    _fresh_run_matches_golden(tmp_path, "verify", "--jobs", "2")


def test_reused_parser_keeps_no_state_between_calls(capsys, tmp_path):
    """main reuses one parser per process; each call in a row prints what
    the same command prints in a fresh process."""
    assert cli._build_parser() is cli._build_parser()
    env = _uninstalled_env()
    calls = [
        (("coset-count", "a | a^5", "--limit", "3"), 2),
        (("coset-count", "a | a^5"), 0),
        (("unit-group", "F4", "C4", "--format", "json"), 0),
        (("unit-group", "F4", "C4"), 0),
    ]
    for argv, expected_code in calls:
        code, out, err = run_cli(capsys, *argv)
        assert code == expected_code
        fresh = subprocess.run([sys.executable, "-m", "kgunits", *argv],
                               capture_output=True, cwd=tmp_path, env=env,
                               timeout=120)
        assert (fresh.returncode, fresh.stdout, fresh.stderr) == \
            (code, out.encode(), err.encode())
    assert run_cli(capsys, "coset-count", "a | a^5")[1] == "5\n"
