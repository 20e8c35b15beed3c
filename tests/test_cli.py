import json
import os
import subprocess
import sys

import pytest

from prefixcodes import cli

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def run_cli(*args, expect=0):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "prefixcodes", *args],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == expect, (proc.returncode, proc.stderr)
    return proc


def solve_json(*args, expect=0):
    return json.loads(run_cli("solve", *args, expect=expect).stdout)


class TestSolve:
    def test_huffman(self):
        doc = solve_json("--problem", "huffman", "--radix", "2", "--weights", "3 2 1 1")
        assert doc["cost"] == 13
        assert doc["n"] == 4
        assert sorted(doc["lengths"]) == [1, 2, 3, 3]
        assert doc["elapsed"] is None
        assert doc["cells_updated"] > 0

    def test_reserved_given(self):
        doc = solve_json("--problem", "reserved-given", "--radix", "2",
                         "--lengths", "2", "--weights", "1 2 3 4")
        assert doc["cost"] == 20
        assert sorted(doc["codewords"]) == ["00", "01", "10", "11"]

    def test_one_ended(self):
        doc = solve_json("--problem", "one-ended", "--weights", "1 1 1")
        assert doc["cost"] == 6
        assert sorted(doc["codewords"]) == ["001", "01", "1"]

    def test_caller_order_preserved(self):
        doc = solve_json("--problem", "huffman", "--weights", "1 3 2")
        # weight 3 gets the shortest word, order follows the input
        assert doc["lengths"] == [2, 1, 2]
        assert doc["codewords"] == ["11", "0", "10"]

    def test_mixed_radix(self):
        doc = solve_json("--problem", "mixed-radix", "--arities", "4",
                         "--weights", "1 1 1")
        assert doc["cost"] == 3
        assert sorted(doc["codewords"]) == ["0", "1", "2"]

    def test_reserved_g(self):
        doc = solve_json("--problem", "reserved-g", "--g", "2", "--weights", "4 1 1")
        assert doc["cost"] == 8

    def test_reserved_g_budget_beyond_n_changes_nothing(self):
        # n weights use at most n distinct lengths
        weights = "9 5 3 2 1 1"
        for output in ("cost", "code", "leafseq", "trace"):
            at_n = solve_json("--problem", "reserved-g", "--g", "6", "--weights", weights,
                              "--output", output)
            wide = solve_json("--problem", "reserved-g", "--g", "1000", "--weights", weights,
                              "--output", output)
            assert wide == at_n

    def test_output_modes(self):
        cost = solve_json("--problem", "huffman", "--weights", "3 2 1 1",
                          "--output", "cost")
        assert cost["cost"] == 13 and cost["lengths"] is None and "codewords" not in cost
        seq = solve_json("--problem", "huffman", "--weights", "3 2 1 1",
                         "--output", "leafseq")
        assert seq["leaf_sequence"] == {"1": 1, "2": 1, "3": 2}
        trace = solve_json("--problem", "huffman", "--weights", "3 2 1 1",
                           "--output", "trace")
        assert trace["expansions"][0] == [0, 1]
        assert trace["expansions"][-1] == [4, 0]

    def test_naive_and_batched_print_identical_results(self):
        for problem, extra in [
            ("huffman", []),
            ("one-ended", []),
            ("reserved-given", ["--lengths", "1 3 6"]),
            ("reserved-g", ["--g", "2"]),
            ("mixed-radix", ["--arities", "2 3"]),
        ]:
            a = solve_json("--problem", problem, "--weights", "9 5 3 2 1 1", *extra,
                           "--algorithm", "naive")
            b = solve_json("--problem", problem, "--weights", "9 5 3 2 1 1", *extra,
                           "--algorithm", "batched")
            for key in ("cost", "lengths", "codewords"):
                assert a.get(key) == b.get(key)

    def test_byte_identical_across_runs(self):
        args = ("--problem", "huffman", "--weights", "3 2 1 1")
        assert run_cli("solve", *args).stdout == run_cli("solve", *args).stdout

    def test_spec_file(self, tmp_path):
        path = tmp_path / "levels.json"
        path.write_text("[[2, 1], [3, 1]]")
        doc = solve_json("--problem", "gmr", "--spec-file", str(path),
                         "--weights", "1 1 1 1 1")
        assert doc["cost"] == 10  # frozen from the exhaustive oracle
        assert doc["lengths"] == [2, 2, 2, 2, 2]

    def test_timing_flag_fills_elapsed(self):
        doc = solve_json("--problem", "huffman", "--weights", "1 1", "--timing")
        assert isinstance(doc["elapsed"], float)


class TestWeightInputs:
    def test_file_with_lines(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("3\n2\n1\n1\n")
        doc = solve_json("--problem", "huffman", "--weights-file", str(path))
        assert doc["cost"] == 13

    def test_file_with_json_array(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("[3, 2, 1, 1]")
        doc = solve_json("--problem", "huffman", "--weights-file", str(path))
        assert doc["cost"] == 13

    def test_missing_weights(self):
        run_cli("solve", "--problem", "huffman", expect=2)

    def test_bad_file_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text("3\n\n2\nx\n1\n")
        proc = run_cli("solve", "--problem", "huffman", "--weights-file", str(path), expect=2)
        assert f"{path}: line 4: 'x' is not an integer" in proc.stderr

    def test_file_line_with_two_integers_is_2(self, tmp_path):
        # once kept the first token: n = 3, cost 9, exit 0, the 4 dropped
        path = tmp_path / "w.txt"
        path.write_text("3 4\n2\n1\n")
        proc = run_cli("solve", "--problem", "huffman", "--weights-file", str(path), expect=2)
        assert f"{path}: line 1: expected one integer, got '3 4'" in proc.stderr
        assert proc.stdout == ""

    def test_malformed_json_array_is_2(self, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("[1, 2")
        proc = run_cli("solve", "--problem", "huffman", "--weights-file", str(path), expect=2)
        assert proc.stderr.startswith("error:")
        assert proc.stdout == ""

    def test_negative_weight(self):
        run_cli("solve", "--problem", "huffman", "--weights", "3 -1", expect=2)


class TestExitCodes:
    def test_usage_error(self):
        run_cli("solve", "--problem", "nonsense", "--weights", "1", expect=2)

    def test_infeasible_is_3(self):
        run_cli("solve", "--problem", "reserved-given", "--lengths", "1",
                "--weights", "1 1 1", expect=3)

    def test_overflow_is_4(self):
        run_cli("solve", "--problem", "reserved-given", "--lengths", "1 1000",
                "--weights", "1 1", expect=4)

    def test_overflow_past_the_bit_length_estimate_is_4(self):
        # gap 200 passes the cheap bit estimate (200 * 1 < 257); 3**200 has 317 bits
        proc = run_cli("solve", "--problem", "reserved-given", "--radix", "3",
                       "--lengths", "1 201", "--weights", "1 1", expect=4)
        assert "3**200 exceeds the supported arity range" in proc.stderr

    def test_budget_is_5(self):
        # one weight past the default --max-oracle-n of 32
        proc = run_cli("verify", "--problem", "gmr",
                       "--weights", " ".join(map(str, range(1, 34))), expect=5)
        assert "n=33 exceeds oracle budget 32" in proc.stderr

    @pytest.mark.parametrize("problem", ["reserved-g", "huffman"])
    def test_bench_unknown_algorithm_is_2(self, problem):
        # once ran the naive (reserved-g) or batched (huffman) fill under the
        # unknown label
        proc = run_cli("bench", "--problem", problem, "--sizes", "8",
                       "--algorithms", "foo", expect=2)
        assert "unknown algorithm 'foo'" in proc.stderr
        assert proc.stdout == ""

    def test_unknown_spec_alias_is_2(self):
        run_cli("solve", "--problem", "gmr", "--spec", "bogus", "--weights", "3 2 1",
                expect=2)

    @pytest.mark.parametrize("content", ["[[2], [3]]", '{"a": 1}', "[[2, 1, 1]]",
                                         '[["2", 1]]', "[2, 1]"])
    def test_malformed_spec_file_is_2(self, tmp_path, content):
        path = tmp_path / "levels.json"
        path.write_text(content)
        proc = run_cli("solve", "--problem", "gmr", "--spec-file", str(path),
                       "--weights", "3 2 1", expect=2)
        assert "[[arity, edge_length], ...]" in proc.stderr

    @pytest.mark.parametrize("flag,content,extra", [
        ("--weights-file", "[1, 2,", ["--problem", "huffman"]),
        ("--spec-file", "[[2, 1], [2", ["--problem", "gmr", "--weights", "3 2 1"]),
    ])
    def test_malformed_json_names_the_file(self, tmp_path, flag, content, extra):
        path = tmp_path / "input.json"
        path.write_text(content)
        proc = run_cli("solve", *extra, flag, str(path), expect=2)
        assert proc.stderr.startswith(f"error: {path}: ")
        assert proc.stdout == ""

    def test_spec_file_of_bools_is_2(self, tmp_path):
        # true once solved as edge length 1 and exited 0
        path = tmp_path / "levels.json"
        path.write_text("[[2,true],[2,true],[2,true]]")
        proc = run_cli("solve", "--problem", "gmr", "--spec-file", str(path),
                       "--weights", "3 2 1", expect=2)
        assert "[[arity, edge_length], ...]" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_verify_oracle_budget_below_1_is_2(self, value):
        # once printed "n=3 exceeds oracle budget -5" and exited 5
        proc = run_cli("verify", "--problem", "huffman", "--weights", "3 2 1",
                       "--max-oracle-n", value, expect=2)
        assert f"--max-oracle-n: must be at least 1, got {value}" in proc.stderr
        assert proc.stdout == ""

    def test_verify_timing_is_2(self):
        # verify times nothing; it once took --timing and ignored it
        proc = run_cli("verify", "--problem", "huffman", "--weights", "3 2 1", "--timing",
                       expect=2)
        assert "unrecognized arguments: --timing" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("flag,args", [
        ("--weights", ("solve", "--problem", "huffman")),
        ("--arities", ("solve", "--problem", "mixed-radix", "--weights", "3 2 1")),
        ("--lengths", ("solve", "--problem", "reserved-given", "--weights", "3 2 1")),
        ("--sizes", ("bench", "--problem", "huffman")),
    ])
    def test_bad_integer_names_the_flag(self, flag, args):
        proc = run_cli(*args, flag, "2 x", expect=2)
        assert f"{flag}: 'x' is not an integer" in proc.stderr

    @pytest.mark.parametrize("problem", ["mixed-radix", "reserved-given", "reserved-g"])
    def test_missing_problem_parameter_is_2(self, problem):
        proc = run_cli("solve", "--problem", problem, "--weights", "3 2 1", expect=2)
        assert f"{problem} requires" in proc.stderr

    @pytest.mark.parametrize("problem,extra,flag", [
        # once printed the binary answer (cost 13) and exited 0
        ("huffman", ["--spec", "ternary"], "--spec"),
        ("huffman", ["--arities", "2 3"], "--arities"),
        ("gmr", ["--lengths", "1 3"], "--lengths"),
        ("mixed-radix", ["--arities", "2 3", "--radix", "3"], "--radix"),
        ("reserved-given", ["--lengths", "1 3", "--g", "2"], "--g"),
        ("reserved-g", ["--g", "2", "--spec-file", "LEVELS"], "--spec-file"),
        ("one-ended", ["--radix", "2"], "--radix"),
    ])
    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_flag_the_problem_ignores_is_2(self, tmp_path, command, problem, extra, flag):
        levels = tmp_path / "levels.json"
        levels.write_text("[[2, 1], [2, 1], [2, 1], [2, 1]]")
        extra = [str(levels) if arg == "LEVELS" else arg for arg in extra]
        proc = run_cli(command, "--problem", problem, "--weights", "3 2 1 1", *extra, expect=2)
        assert f"{flag} is not read by {problem}" in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("extra", [["--radix", "3", "--spec", "binary"],
                                       ["--spec", "binary", "--spec-file", "LEVELS"]])
    def test_gmr_takes_one_level_description(self, tmp_path, extra):
        levels = tmp_path / "levels.json"
        levels.write_text("[[2, 1], [2, 1], [2, 1], [2, 1]]")
        extra = [str(levels) if arg == "LEVELS" else arg for arg in extra]
        proc = run_cli("solve", "--problem", "gmr", "--weights", "3 2 1 1", *extra, expect=2)
        assert "gmr takes at most one of --radix, --spec, --spec-file" in proc.stderr

    @pytest.mark.parametrize("extra,message", [
        (["--repetitions", "0"], "--repetitions: must be at least 1"),
        (["--repetitions", "-2"], "--repetitions: must be at least 1"),
        (["--algorithms", ""], "--algorithms: empty algorithm list"),
    ])
    def test_bench_empty_run_is_2(self, extra, message):
        # once printed a header-only CSV and exited 0
        proc = run_cli("bench", "--problem", "huffman", "--sizes", "8", *extra, expect=2)
        assert message in proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize("problem,extra,flag", [
        # once printed radix=5 in its params line and exited 0
        ("one-ended", ["--radix", "5", "--g", "9"], "--radix"),
        ("one-ended", ["--g", "9"], "--g"),
        ("huffman", ["--g", "2"], "--g"),
        ("reserved-given", ["--radix", "3", "--g", "2"], "--g"),
    ])
    def test_bench_flag_the_problem_ignores_is_2(self, problem, extra, flag):
        proc = run_cli("bench", "--problem", problem, "--sizes", "8",
                       "--algorithms", "batched", *extra, expect=2)
        assert f"{flag} is not read by {problem}" in proc.stderr
        assert proc.stdout == ""


class TestVerify:
    def test_gmr_binary(self):
        proc = run_cli("verify", "--problem", "gmr", "--spec", "binary",
                       "--weights", "3 2 1 1")
        doc = json.loads(proc.stdout)
        assert doc["agree"] and doc["solver_cost"] == doc["oracle_cost"] == 13

    def test_gmr_spec_file_longer_than_the_oracle_budget(self, tmp_path):
        # once "max_level=10 exceeds oracle budget 8", exit 5; 3 weights need
        # at most 3 levels
        path = tmp_path / "ten.json"
        path.write_text(json.dumps([[2, 1]] * 10))
        proc = run_cli("verify", "--problem", "gmr", "--spec-file", str(path),
                       "--weights", "3 2 1")
        doc = json.loads(proc.stdout)
        assert doc["agree"] and doc["oracle_cost"] == 9

    def test_one_ended(self):
        proc = run_cli("verify", "--problem", "one-ended", "--weights", "2 1")
        doc = json.loads(proc.stdout)
        assert doc["agree"] and doc["solver_cost"] == 4

    def test_one_ended_reads_max_oracle_n(self):
        # once capped at 6: "n=7 exceeds oracle budget 6", exit 5
        proc = run_cli("verify", "--problem", "one-ended", "--weights", "5 4 3 3 2 1 1",
                       "--max-oracle-n", "20")
        doc = json.loads(proc.stdout)
        assert doc["agree"] and doc["solver_cost"] == doc["oracle_cost"]

    @pytest.mark.parametrize("problem,extra", [
        ("huffman", ["--radix", "3"]),
        ("mixed-radix", ["--arities", "2 3"]),
        ("reserved-given", ["--lengths", "1 3"]),
        ("reserved-g", ["--g", "2"]),
    ])
    def test_other_problems(self, problem, extra):
        proc = run_cli("verify", "--problem", problem, "--weights", "5 3 2 1", *extra)
        assert json.loads(proc.stdout)["agree"]

    def test_reserved_g_oracle_stops_at_n_levels(self):
        # enumerating all 40 levels would not finish; n = 3 needs only 3
        proc = run_cli("verify", "--problem", "reserved-g", "--g", "40", "--weights", "3 2 1")
        doc = json.loads(proc.stdout)
        assert doc["agree"] and doc["solver_cost"] == doc["oracle_cost"]

    @pytest.mark.parametrize("weights,cost", [
        ("9 8 7 6 5 4 3 2", 128),
        ("12 11 10 9 8 7 6 5 4 3 2 1", 264),
    ])
    def test_reserved_g_deep(self, weights, cost):
        # g = n levels; once one enumeration per option assignment, 4**8 of
        # them at n = 8
        g = str(len(weights.split()))
        proc = run_cli("verify", "--problem", "reserved-g", "--g", g, "--max-oracle-n", g,
                       "--weights", weights)
        doc = json.loads(proc.stdout)
        assert doc["agree"] and doc["oracle_cost"] == cost


class TestBench:
    def test_csv_with_slope(self):
        proc = run_cli("bench", "--problem", "one-ended", "--sizes", "16 32",
                       "--algorithms", "batched", "--seed", "3")
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "problem,algorithm,n,cells_updated,wall_time"
        assert lines[1].startswith("one-ended,batched,16,")
        assert any(line.startswith("# slope problem=one-ended") for line in lines)

    def test_single_size_omits_slope(self):
        proc = run_cli("bench", "--problem", "one-ended", "--sizes", "16",
                       "--algorithms", "batched")
        assert not any("# slope" in line for line in proc.stdout.splitlines())

    def test_slope_skips_sizes_without_cells(self):
        # one-ended spends no cells at n <= 2; once "math domain error", exit 2
        def slopes(sizes):
            proc = run_cli("bench", "--problem", "one-ended", "--sizes", sizes)
            return [line for line in proc.stdout.splitlines() if line.startswith("# slope")]
        assert slopes("1 2 8") == []
        assert slopes("2 16 32") == slopes("16 32") != []

    @pytest.mark.parametrize("problem,extra,cells,radix", [
        # cells_updated of the naive and batched rows at n = 8
        ("gmr", ["--radix", "3"], ["376", "368"], 3),
        ("huffman", ["--radix", "3"], ["376", "368"], 3),
        ("mixed-radix", ["--radix", "3"], ["376", "368"], 3),
        ("reserved-given", ["--radix", "3"], ["157", "154"], 3),
        ("reserved-g", ["--radix", "3", "--g", "2"], ["126", "124"], 3),
        ("reserved-g", ["--g", "5"], ["750", "685"], 2),
    ])
    def test_read_flags_reach_the_rows(self, problem, extra, cells, radix):
        proc = run_cli("bench", "--problem", problem, "--sizes", "8",
                       "--algorithms", "naive batched", *extra)
        lines = proc.stdout.splitlines()
        assert [line.split(",")[3] for line in lines[1:3]] == cells
        # reserved-g also names its budget: " g=2" and " g=5" here
        budget = f" g={extra[extra.index('--g') + 1]}" if problem == "reserved-g" else ""
        assert lines[3] == ("# params distribution=uniform seed=1 repetitions=1 "
                            f"radix={radix}{budget}")

    def test_params_line_names_the_reserved_g_budget(self):
        # budgets 5 and 3 (the default) give different rows, so the saved
        # CSV has to say which one ran
        runs = [run_cli("bench", "--problem", "reserved-g", "--sizes", "8", *extra).stdout
                for extra in (["--g", "5"], [])]
        params = [[line for line in out.splitlines() if line.startswith("# params")]
                  for out in runs]
        assert params[0] != params[1]
        assert params[1] == ["# params distribution=uniform seed=1 repetitions=1 radix=2 g=3"]

    def test_deterministic_without_timing(self):
        args = ("bench", "--problem", "huffman", "--sizes", "8 16",
                "--algorithms", "naive batched", "--seed", "11")
        assert run_cli(*args).stdout == run_cli(*args).stdout


class TestParserReuse:
    """``main`` reuses one parser per process, so no call may see another
    call's values, and each falls back to the parser's own defaults."""

    def test_calls_in_a_row_see_only_their_own_arguments(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        plain = ["solve", "--problem", "huffman", "--weights", "3 2 1"]
        fresh = run_cli(*plain).stdout  # defaults: radix 2, batched, code output
        # a bad weight list fails after parsing; --g would be an error for huffman
        bad_weights = ["solve", "--problem", "reserved-g", "--g", "2", "--algorithm", "naive",
                       "--output", "cost", "--weights", "3 x"]
        # an unknown output mode fails in the parser itself
        bad_choice = ["solve", "--problem", "huffman", "--radix", "3", "--output", "bogus",
                      "--weights", "3 2 1"]
        assert cli.main(bad_weights) == 2
        assert "--weights: 'x' is not an integer" in capsys.readouterr().err
        assert cli.main(plain) == 0
        assert capsys.readouterr().out == fresh
        with pytest.raises(SystemExit) as exc:
            cli.main(bad_choice)
        assert exc.value.code == 2
        capsys.readouterr()
        assert cli.main(plain) == 0
        assert capsys.readouterr().out == fresh
        # and the failing call sees nothing of the one before it
        assert cli.main(bad_weights) == 2
        assert "--weights: 'x' is not an integer" in capsys.readouterr().err
