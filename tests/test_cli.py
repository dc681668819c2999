"""Tests for the command-line interface."""

import errno
import json
import os
import stat
import subprocess
import sys

import pytest

from cubetriples.cli import main
from cubetriples.solver import SolutionSet, TripleSystem, solve


# s = 0, c = 3 * 1000003 * 1000033: both primes lie just above the trial
# limit, so d0 cannot be factored completely; solve and trace need only its
# divisors up to the cube-root cap 10**4
UNFACTORED_C = "3000108000297"
# s = 0, c = 6 * 1000003 * 1000033 * 1000037: the cube-root cap of d0/3,
# about 1.26e6, lies above the trial limit, and the cofactor left there is
# composite, so neither solve nor trace can prove its divisor list complete
UNCERTIFIED_C = 6 * 1000003 * 1000033 * 1000037
# a sum whose 1501 digits pass Python's 4300-digit int<->str cap only in
# the values derived from it, and a cube sum past the cap itself
HUGE_S = 10**1500 + 7
HUGE_C = 10**4399 + 1


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv):
    """The CLI run as its own process, the way its entry point starts it."""
    return subprocess.run(
        [sys.executable, "-m", "cubetriples", *argv], capture_output=True, text=True
    )


def _decimal(n: int) -> str:
    """str(n) for an n >= 0 past this process's int->str digit cap."""
    chunks = []
    while n >= 10**1000:
        n, low = divmod(n, 10**1000)
        chunks.append(f"{low:01000d}")
    return str(n) + "".join(reversed(chunks))


class TestSolveCommand:
    def test_known_instance_text(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--sum", "3", "--cubes", "3")
        assert code == 0
        assert out.splitlines() == [
            "(-5, 4, 4)",
            "(1, 1, 1)",
            "(4, -5, 4)",
            "(4, 4, -5)",
        ]

    def test_known_instance_json_round_trips(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--sum", "3", "--cubes", "3", "--format", "json")
        assert code == 0
        parsed = SolutionSet.from_json_dict(json.loads(out))
        assert parsed == solve(TripleSystem(3, 3))

    def test_infinite_family_text(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--sum", "1", "--cubes", "1")
        assert code == 0
        assert "infinite family" in out
        assert "(1, t, -t)" in out

    def test_infinite_family_json(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--sum", "1", "--cubes", "1", "--format", "json")
        assert json.loads(out) == {"kind": "infinite_family", "family_anchor": 1}

    def test_empty_set_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--sum", "0", "--cubes", "3")
        assert code == 0
        assert out.strip() == "no solutions"

    def test_no_factoring_when_three_does_not_divide_d0(self, capsys):
        # d0 = 1000003 * 1000033 lies beyond trial division, and d0 = 1 (mod 3)
        code, out, _ = run_cli(capsys, "solve", "--sum", "0", "--cubes", "1000036000099")
        assert code == 0
        assert out.strip() == "no solutions"

    def test_cap_below_trial_limit_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--sum", "0", "--cubes", UNFACTORED_C)
        assert code == 0
        assert out.strip() == "no solutions"

    def test_incomplete_factorization_is_one_line(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--sum", "0", "--cubes", str(UNCERTIFIED_C))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "incomplete factorization" in err

    def test_huge_flag_values_accepted(self, capsys):
        big = 10**30
        code, out, _ = run_cli(capsys, "solve", "--sum", str(big), "--cubes", str(big**3))
        assert code == 0
        assert "infinite family" in out

    def test_missing_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--sum", "3"])
        assert excinfo.value.code == 2

    def test_malformed_int_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "--sum", "three", "--cubes", "3"])
        assert excinfo.value.code == 2


class TestOracleCommand:
    def test_known_instance(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--sum", "3", "--cubes", "3", "--bound", "5")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_tight_bound(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--sum", "3", "--cubes", "3", "--bound", "1")
        assert out.splitlines() == ["(1, 1, 1)"]

    def test_zero_system_small_box(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--sum", "0", "--cubes", "0", "--bound", "1")
        assert len(out.splitlines()) == 7

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--sum", "3", "--cubes", "3", "--bound", "5", "--format", "json"
        )
        assert json.loads(out)["kind"] == "finite"
        assert json.loads(out)["solutions"] == [[-5, 4, 4], [1, 1, 1], [4, -5, 4], [4, 4, -5]]

    def test_negative_bound_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["oracle", "--sum", "3", "--cubes", "3", "--bound", "-1"])
        assert excinfo.value.code == 2

    def test_closed_reader_is_no_failure(self):
        # a reader that takes one line and closes the pipe, as `| head -1`
        # does, while the command still has about 2 MB to print: every
        # permutation of (0, t, -t) with |t| <= 20000
        argv = ["oracle", "--sum", "0", "--cubes", "0", "--bound", "20000"]
        with subprocess.Popen(
            [sys.executable, "-m", "cubetriples", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        ) as process:
            line = process.stdout.readline()
            process.stdout.close()
            err = process.stderr.read()
        assert line == b"(-20000, 0, 20000)\n"
        assert err == b""
        assert process.returncode == 0


class TestTraceCommand:
    def test_plain_contains_remainders(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--sum", "3", "--cubes", "3", "--format", "plain")
        assert code == 0
        assert "8/(Z - 3)" in out
        assert "24/(Z - 3)" in out
        assert "[candidates] Z in {1, 4}" in out

    def test_default_format_is_plain(self, capsys):
        _, default_out, _ = run_cli(capsys, "trace", "--sum", "3", "--cubes", "3")
        _, plain_out, _ = run_cli(capsys, "trace", "--sum", "3", "--cubes", "3", "--format", "plain")
        assert default_out == plain_out

    def test_degenerate_family_statement(self, capsys):
        _, out, _ = run_cli(capsys, "trace", "--sum", "1", "--cubes", "1", "--format", "plain")
        assert "infinite family" in out

    def test_json_record_per_step(self, capsys):
        _, out, _ = run_cli(capsys, "trace", "--sum", "3", "--cubes", "3", "--format", "json")
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["index"] for r in records] == list(range(1, len(records) + 1))
        assert records[0]["label"] == "rearrange-linear"

    def test_markdown_numbered_list(self, capsys):
        _, out, _ = run_cli(capsys, "trace", "--sum", "3", "--cubes", "3", "--format", "markdown")
        assert out.startswith("1. **rearrange-linear**")

    def test_unknown_format_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "--sum", "3", "--cubes", "3", "--format", "html"])
        assert excinfo.value.code == 2

    def test_cap_below_trial_limit_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "trace", "--sum", "0", "--cubes", UNFACTORED_C)
        assert code == 0
        assert out.splitlines()[-2] == "10. [solutions] (X, Y, Z) in {}"

    def test_incomplete_factorization_is_one_line(self, capsys):
        code, out, err = run_cli(capsys, "trace", "--sum", "0", "--cubes", str(UNCERTIFIED_C))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "incomplete factorization" in err


class TestScanCommand:
    def test_known_point(self, capsys, tmp_path):
        out_file = tmp_path / "r.jsonl"
        code, out, _ = run_cli(
            capsys, "scan", "--sum-range", "3:3", "--cubes-range", "3:3", "--out", str(out_file)
        )
        assert code == 0
        records = [json.loads(line) for line in out_file.read_text().splitlines()]
        assert records == [
            {"s": 3, "c": 3, "kind": "finite", "solution_count": 4, "bound_used": 11}
        ]
        assert "1 systems" in out

    def test_degenerate_point(self, capsys, tmp_path):
        out_file = tmp_path / "r.jsonl"
        run_cli(capsys, "scan", "--sum-range", "0:0", "--cubes-range", "0:0", "--out", str(out_file))
        assert json.loads(out_file.read_text()) == {"s": 0, "c": 0, "kind": "infinite_family"}

    def test_jobs_do_not_change_bytes(self, capsys, tmp_path):
        one, four = tmp_path / "one.jsonl", tmp_path / "four.jsonl"
        run_cli(
            capsys, "scan", "--sum-range", "-2:2", "--cubes-range", "-2:2",
            "--out", str(one), "--jobs", "1",
        )
        run_cli(
            capsys, "scan", "--sum-range", "-2:2", "--cubes-range", "-2:2",
            "--out", str(four), "--jobs", "4",
        )
        assert one.read_bytes() == four.read_bytes()
        assert len(one.read_text().splitlines()) == 25

    def test_include_solutions(self, capsys, tmp_path):
        out_file = tmp_path / "r.jsonl"
        run_cli(
            capsys, "scan", "--sum-range", "2:3", "--cubes-range", "2:3",
            "--out", str(out_file), "--include-solutions",
        )
        records = [json.loads(line) for line in out_file.read_text().splitlines()]
        by_point = {(r["s"], r["c"]): r for r in records}
        assert by_point[(3, 3)]["solutions"] == [[-5, 4, 4], [1, 1, 1], [4, -5, 4], [4, 4, -5]]
        assert by_point[(2, 2)]["solution_count"] == 3

    def test_summary_counts(self, capsys, tmp_path):
        out_file = tmp_path / "r.jsonl"
        _, out, _ = run_cli(
            capsys, "scan", "--sum-range", "-2:2", "--cubes-range", "-2:2", "--out", str(out_file)
        )
        assert out.strip() == "25 systems: 2 finite, 20 empty, 3 infinite-family"

    def test_malformed_range_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", "--sum-range", "3", "--cubes-range", "3:3", "--out", str(tmp_path / "r")])
        assert excinfo.value.code == 2

    def test_empty_range_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", "--sum-range", "2:1", "--cubes-range", "3:3", "--out", str(tmp_path / "r")])
        assert excinfo.value.code == 2

    def test_bad_jobs_is_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "scan", "--sum-range", "1:1", "--cubes-range", "1:1",
                "--out", str(tmp_path / "r"), "--jobs", "0",
            ])
        assert excinfo.value.code == 2

    def test_unwritable_path_fails_cleanly(self, capsys, tmp_path):
        out_arg = str(tmp_path / "missing" / "r.jsonl")
        code, _, err = run_cli(
            capsys, "scan", "--sum-range", "1:1", "--cubes-range", "1:1", "--out", out_arg
        )
        assert code == 1
        # the line names --out as given, not the temporary file beside it
        assert err == (
            f"cubetriples scan: cannot open output file: {out_arg}: {os.strerror(errno.ENOENT)}\n"
        )
        assert ".tmp" not in err.replace(out_arg, "")

    @pytest.mark.parametrize("target_exists", [True, False], ids=["existing", "dangling"])
    def test_symlinked_out_writes_the_target(self, capsys, tmp_path, target_exists):
        target, link = tmp_path / "target.jsonl", tmp_path / "link.jsonl"
        if target_exists:
            target.write_text("old\n")
        link.symlink_to(target)
        code, _, _ = run_cli(
            capsys, "scan", "--sum-range", "3:3", "--cubes-range", "3:3", "--out", str(link)
        )
        assert code == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert json.loads(target.read_text())["solution_count"] == 4
        assert sorted(tmp_path.iterdir()) == [link, target]

    @pytest.mark.parametrize("node", ["fifo", "directory", "symlink-to-fifo"])
    def test_out_that_is_not_a_regular_file_is_refused(self, capsys, tmp_path, node):
        out_node = tmp_path / "r.jsonl"
        if node == "directory":
            out_node.mkdir()
        else:
            os.mkfifo(out_node)
        out_arg = out_node
        if node == "symlink-to-fifo":
            out_arg = tmp_path / "link.jsonl"
            out_arg.symlink_to(out_node)
        nodes = sorted(tmp_path.iterdir())
        code, out, err = run_cli(
            capsys, "scan", "--sum-range", "3:3", "--cubes-range", "3:3", "--out", str(out_arg)
        )
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert "not a regular file" in err
        is_node = stat.S_ISDIR if node == "directory" else stat.S_ISFIFO
        assert is_node(out_node.lstat().st_mode)
        assert out_arg.is_symlink() == (node == "symlink-to-fifo")
        assert sorted(tmp_path.iterdir()) == nodes
        if node == "directory":
            assert list(out_node.iterdir()) == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_incomplete_factorization_leaves_no_output(self, capsys, tmp_path, jobs):
        # row s = 0 holds c = UNCERTIFIED_C after points that do factor, among
        # them c - 6 and c - 3, whose caps also lie above the trial limit;
        # it ends before c + 3, which fails as well.  Two rows make two row
        # spans, so at --jobs 2 the error crosses the process boundary
        out_file = tmp_path / "r.jsonl"
        code, _, err = run_cli(
            capsys, "scan", "--sum-range", "0:1",
            "--cubes-range", f"{UNCERTIFIED_C - 7}:{UNCERTIFIED_C + 2}",
            "--out", str(out_file), "--jobs", jobs,
        )
        assert code == 1
        assert len(err.splitlines()) == 1
        assert "incomplete factorization" in err
        assert list(tmp_path.iterdir()) == []


class TestPastTheDigitCap:
    """Values derived from a flag outgrow it: d0 = c - s^3 has three times
    the digits of s.  Each run checks its output as text, since this test
    process keeps the digit cap."""

    def test_trace_of_huge_sum(self):
        ran = run_module("trace", "--sum", str(HUGE_S), "--cubes", "0")
        assert (ran.returncode, ran.stderr) == (0, "")
        lines = ran.stdout.splitlines()
        assert lines[0] == f" 1. [rearrange-linear] X + Y = {HUGE_S} - Z"
        assert lines[8] == f" 5. [divisibility] 3({HUGE_S} - Z) | -{_decimal(HUGE_S**3)}"
        assert lines[12] == " 7. [solutions] (X, Y, Z) in {}"

    def test_scan_of_huge_sum(self, tmp_path):
        out_file = tmp_path / "r.jsonl"
        ran = run_module(
            "scan", "--sum-range", f"{HUGE_S}:{HUGE_S}", "--cubes-range", "0:0", "--out", str(out_file)
        )
        assert (ran.returncode, ran.stderr) == (0, "")
        assert ran.stdout == "1 systems: 0 finite, 1 empty, 0 infinite-family\n"
        bound = _decimal(HUGE_S + HUGE_S**3 // 3)
        assert out_file.read_text() == (
            f'{{"s":{HUGE_S},"c":0,"kind":"finite","solution_count":0,"bound_used":{bound}}}\n'
        )

    def test_solve_failure_on_huge_sum_is_one_line(self):
        # d0/3 = -9 * HUGE_S^3: its cap lies far above the trial limit
        ran = run_module("solve", "--sum", str(3 * HUGE_S), "--cubes", "0")
        assert (ran.returncode, ran.stdout) == (1, "")
        # both 4501-digit values are shortened to their ends and digit count
        n, cofactor = _decimal(9 * HUGE_S**3), _decimal(HUGE_S**3)
        assert ran.stderr == (
            f"cubetriples solve: incomplete factorization of -{n[:8]}...{n[-8:]} ({len(n)} digits): "
            f"cofactor {cofactor[:8]}...{cofactor[-8:]} ({len(cofactor)} digits) "
            "is not certified prime within the trial limit\n"
        )
        assert len(ran.stderr.encode()) < 300

    def test_flag_past_the_digit_cap(self):
        ran = run_module("trace", "--sum", "0", "--cubes", _decimal(HUGE_C))
        assert (ran.returncode, ran.stderr) == (0, "")
        assert ran.stdout.splitlines()[2] == f" 2. [rearrange-cubic] X^3 + Y^3 = {_decimal(HUGE_C)} - Z^3"


def test_module_entry_point():
    result = run_module("solve", "--sum", "3", "--cubes", "3")
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "(-5, 4, 4)"


def test_numpy_not_loaded_outside_oracle():
    imported = subprocess.run(
        [sys.executable, "-c", "import sys, cubetriples; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert imported.stdout == "False\n"
    # -X importtime lists every module the command imports on stderr
    solved = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cubetriples", "solve", "--sum", "3", "--cubes", "3"],
        capture_output=True,
        text=True,
    )
    assert solved.returncode == 0
    assert "cubetriples.cli" in solved.stderr
    assert "numpy" not in solved.stderr


def test_numpy_not_loaded_by_oracle():
    ran = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cubetriples", "oracle", "--sum", "3", "--cubes", "3", "--bound", "5"],
        capture_output=True,
        text=True,
    )
    assert ran.returncode == 0
    assert "cubetriples.oracle" in ran.stderr
    assert "numpy" not in ran.stderr


def test_process_pool_not_loaded_outside_parallel_scan():
    pool_modules = ("concurrent.futures.process", "multiprocessing")
    probe = f"import sys, cubetriples; print([m for m in {pool_modules!r} if m in sys.modules])"
    imported = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert imported.stdout == "[]\n"
    # -X importtime ends each line with the imported module's name
    solved = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cubetriples", "solve", "--sum", "3", "--cubes", "3"],
        capture_output=True,
        text=True,
    )
    assert solved.returncode == 0
    loaded = {line.rsplit("|", 1)[-1].strip() for line in solved.stderr.splitlines()}
    assert "cubetriples.cli" in loaded
    assert not loaded & set(pool_modules)


def test_dataclasses_and_inspect_not_loaded():
    heavy = {"dataclasses", "inspect"}
    # the package loads json only where the trace renders structured records
    bare = heavy | {"json"}
    probe = (
        "import sys; before = set(sys.modules); import cubetriples; "
        f"print(sorted({bare!r} & (set(sys.modules) - before)))"
    )
    imported = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert imported.stdout == "[]\n"

    # -X importtime ends each line with the imported module's name; what the
    # bare interpreter loads at startup (a site hook, say) does not count
    def loaded(*args: str) -> set[str]:
        run = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True)
        assert run.returncode == 0
        return {line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()}

    solved = loaded("-m", "cubetriples", "solve", "--sum", "3", "--cubes", "3")
    assert "cubetriples.cli" in solved
    assert not (solved - loaded("-c", "pass")) & heavy


def test_json_loaded_only_for_json_output():
    json_modules = {"json", "json.decoder", "json.scanner", "json.encoder", "_json"}

    # -X importtime ends each line with the imported module's name; what the
    # bare interpreter loads at startup does not count
    def loaded(*args: str) -> set[str]:
        run = subprocess.run([sys.executable, "-X", "importtime", *args], capture_output=True, text=True)
        assert run.returncode == 0
        return {line.rsplit("|", 1)[-1].strip() for line in run.stderr.splitlines()}

    startup = loaded("-c", "pass")
    system = ("--sum", "3", "--cubes", "3")
    for command in (("trace", *system), ("solve", *system, "--format", "text")):
        ran = loaded("-m", "cubetriples", *command)
        assert "cubetriples.cli" in ran
        assert not (ran - startup) & json_modules, command
    assert "json" in loaded("-m", "cubetriples", "solve", *system, "--format", "json")


def test_no_command_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
