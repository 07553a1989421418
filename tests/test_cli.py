import contextlib
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from goodnet import Weight, engine, experiments, fixture, random_network, serialize_network, trace_line
from goodnet.cli import bind_demo, build_parser, main, result_line
from goodnet.engine import RULES, run
from goodnet.experiments import DemoResult
from goodnet.schedulers import parse_scheduler


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_fig1(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--fixture", "fig1", "--rule", "activate",
        "--sched", "central-rr", "--init", "zeros",
    )
    assert code == 0
    last = out.strip().splitlines()[-1]
    assert last.startswith("RESULT stable=1 ")
    assert "goodness=3" in last and "assignment=10001" in last


def test_run_example51_cutset(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--fixture", "example51", "--rule", "activate-with-cutset",
        "--sched", "central-rr", "--init", "zeros",
    )
    assert code == 0
    assert "assignment=11111" in out
    assert "stable=1" in out


@pytest.mark.parametrize(
    "argv, code",
    [
        (("run", "--fixture", "fig1"), 0),
        (("run", "--fixture", "ring6", "--rule", "boltzmann", "--temp", "1", "--seed", "7", "--max-passes", "1"), 2),
        (("run", "--fixture", "fig1", "--sched", "chaotic"), 1),
    ],
    ids=["stable", "budget", "error"],
)
def test_module_entry_point_exit_codes(argv, code):
    # `python -m goodnet` in a fresh interpreter: 0 stable, 2 budget exhausted, 1 error
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.run([sys.executable, "-m", "goodnet", *argv], capture_output=True, text=True, env=env)
    assert proc.returncode == code, proc.stderr
    if code == 1:
        assert proc.stdout == "" and proc.stderr.startswith("error:")
    else:
        assert proc.stdout.startswith("RESULT stable=") and proc.stderr == ""


def test_a_closed_stdout_stops_the_command_quietly():
    # `goodnet run ... | head -n 1`: 1.8 MB of trace meets a reader that
    # has gone; the command stops with the SIGPIPE status and says nothing
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    argv = ["run", "--fixture", "chain2i:5", "--sched", "sync-all", "--max-passes", "2000", "--format", "tsv"]
    proc = subprocess.Popen([sys.executable, "-m", "goodnet", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline().startswith(b"0\t1\t")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


@pytest.mark.parametrize("command", ["run", "oracle"])
def test_an_empty_fixture_name_is_an_unknown_fixture(capsys, command):
    assert run_cli(capsys, command, "--fixture", "") == (1, "", "error: unknown fixture ''\n")


def test_run_missing_file(capsys):
    code, _, err = run_cli(capsys, "run", "--net", "missing.net")
    assert code == 1
    assert "error" in err


def test_run_rejects_round_robin_order_that_skips_units(capsys):
    code, out, err = run_cli(capsys, "run", "--fixture", "ring6", "--sched", "central-rr:1,2,3")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "never schedules node 4" in err
    # a scripted order is a round-robin order
    code, out, err = run_cli(capsys, "run", "--fixture", "fig1", "--sched", "scripted:1,2")
    assert (code, out) == (1, "")
    assert err == "error: round-robin order never schedules node 3 of 1..5\n"


@pytest.mark.parametrize(
    "argv",
    [("--cutset", "1"), ("--cutset", "auto", "--rule", "hopfield")],
    ids=["activate-1", "hopfield-auto"],
)
def test_run_rejects_a_cutset_for_other_rules(capsys, argv):
    code, out, err = run_cli(capsys, "run", "--fixture", "example51", *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: a cutset is only meaningful with the activate-with-cutset rule")


def test_run_accepts_an_empty_auto_cutset_for_other_rules(capsys):
    # fig1 is a tree, so the greedy cutset is empty and plain activate runs
    with_auto = run_cli(capsys, "run", "--fixture", "fig1", "--rule", "activate", "--cutset", "auto")
    assert with_auto == run_cli(capsys, "run", "--fixture", "fig1", "--rule", "activate")
    assert with_auto[0] == 0


@pytest.mark.parametrize(
    "argv, node",
    [
        (("oracle", "--fixture", "fig1", "--cutset", "9"), 9),
        (("oracle", "--fixture", "fig1", "--cutset", "0"), 0),
        (("run", "--fixture", "fig1", "--rule", "activate-with-cutset", "--cutset", "9"), 9),
    ],
    ids=["oracle-9", "oracle-0", "run-9"],
)
def test_cutset_ids_outside_the_net_are_rejected(capsys, argv, node):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err == f"error: cutset references node {node} outside 1..5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("run", "--fixture", "fig1", "--max-passes", "0"),
        ("demo", "selfstab", "--trials", "0"),
        ("demo", "dominance", "--trials", "0"),
    ],
    ids=["max-passes", "selfstab-trials", "dominance-trials"],
)
def test_empty_budgets_are_rejected(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "must be at least 1, got 0" in err


def test_run_budget_exhaustion_exit_2(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--fixture", "fig1", "--rule", "boltzmann",
        "--temp", "1", "--max-passes", "3", "--seed", "5",
    )
    assert code == 2
    assert "stable=0" in out


def test_run_tsv_trace(capsys, tmp_path):
    trace_path = tmp_path / "trace.tsv"
    code, out, _ = run_cli(
        capsys, "run", "--fixture", "fig1", "--format", "tsv",
        "--trace", str(trace_path),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[-1].startswith("RESULT ")
    first = lines[0].split("\t")
    assert len(first) == 6
    assert first[0] == "0"
    assert trace_path.read_text() == "\n".join(lines[:-1]) + "\n"


def test_run_refuses_an_empty_trace_path(capsys, monkeypatch):
    # refused before the run starts: no trace is collected only to be dropped
    monkeypatch.setattr("goodnet.cli.run", lambda *args, **kwargs: pytest.fail("the run started"))
    code, out, err = run_cli(capsys, "run", "--fixture", "fig1", "--trace", "")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "--trace" in err


def test_run_refuses_an_unwritable_trace_path_before_the_run(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr("goodnet.cli.run", lambda *args, **kwargs: pytest.fail("the run started"))
    path = tmp_path / "missing" / "t.tsv"
    code, out, err = run_cli(capsys, "run", "--fixture", "chain2i:5", "--max-passes", "20000", "--trace", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "No such file or directory" in err and not path.parent.exists()


def test_a_failed_run_keeps_the_trace_file_it_would_have_written(capsys, tmp_path):
    # the path is checked before the run but written only after it
    path = tmp_path / "t.tsv"
    path.write_bytes(b"old contents\n")
    code, out, err = run_cli(capsys, "run", "--fixture", "fig1", "--rule", "boltzmann", "--trace", str(path))
    assert (code, out, err) == (1, "", "error: boltzmann rule needs a temperature\n")
    assert path.read_bytes() == b"old contents\n"
    code, out, _ = run_cli(capsys, "run", "--fixture", "fig1", "--format", "tsv", "--trace", str(path))
    assert code == 0 and path.read_text() == out[: out.rindex("RESULT")]


@pytest.mark.parametrize(
    "argv",
    [("--rule", "boltzmann"), ("--max-passes", "0"), ("--rule", "boltzmann", "--temp", "abc")],
    ids=["no-temperature", "no-passes", "bad-temperature"],
)
def test_a_failed_run_removes_the_trace_file_it_created(capsys, tmp_path, argv):
    # the path is created before the run, so that a bad one fails at once,
    # and removed again when the run fails; a file that was there keeps its bytes
    path = tmp_path / "t.tsv"
    code, out, err = run_cli(capsys, "run", "--fixture", "fig1", *argv, "--trace", str(path))
    assert (code, out) == (1, "") and err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []
    path.write_bytes(b"old contents\n")
    assert run_cli(capsys, "run", "--fixture", "fig1", *argv, "--trace", str(path)) == (1, "", err)
    assert path.read_bytes() == b"old contents\n"


def test_a_trace_to_the_null_device_runs_and_a_failed_run_leaves_it(capsys):
    code, out, _ = run_cli(capsys, "run", "--fixture", "fig1", "--trace", os.devnull)
    assert code == 0 and out.startswith("RESULT stable=1 ")
    code, out, err = run_cli(capsys, "run", "--fixture", "fig1", "--rule", "boltzmann", "--trace", os.devnull)
    assert (code, out, err) == (1, "", "error: boltzmann rule needs a temperature\n")
    assert os.path.exists(os.devnull) and not os.path.isfile(os.devnull)


def test_run_rejects_init_preset(capsys):
    # the stuck pointer ring is reached through `goodnet demo fig9`
    with pytest.raises(SystemExit) as exc:
        main(["run", "--fixture", "illegal_ring:5", "--init", "preset"])
    assert exc.value.code == 2
    assert "invalid choice: 'preset'" in capsys.readouterr().err


def test_oracle_fig1(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--fixture", "fig1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "OPT goodness=3 count=1"
    assert lines[1] == "10001"


def test_oracle_ring6(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--fixture", "ring6")
    lines = out.strip().splitlines()
    assert lines[0] == "OPT goodness=3 count=2"
    assert set(lines[1:3]) == {"010101", "101010"}


def test_oracle_example51_conditioning_table(capsys):
    code, out, _ = run_cli(capsys, "oracle", "--fixture", "example51", "--cutset", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "OPT goodness=250.7 count=1"
    assert "11111" in lines[1]
    assert "COND y=0 goodness=199.8" in lines
    assert "COND y=1 goodness=250.7" in lines


def test_oracle_cutset_auto_prints_the_conditioning_table(capsys, tmp_path):
    import goodnet

    for seed in range(5):
        net = goodnet.random_network("sparse", 25, m=4, seed=seed)
        path = tmp_path / f"sparse{seed}.net"
        path.write_text(goodnet.serialize_network(net))
        code, out, _ = run_cli(capsys, "oracle", "--net", str(path), "--cutset", "auto")
        assert code == 0
        report = goodnet.cutset_exact_optimize(net, goodnet.greedy_cutset(net))
        expected = [
            f"COND y={''.join(str(b) for b in bits)} goodness={value}" for bits, value in report.conditionings
        ]
        assert [line for line in out.splitlines() if line.startswith("COND")] == expected
        assert len(expected) == 2 ** len(goodnet.greedy_cutset(net).members)


# a 6-ring whose odd nodes have distinct biases, so each code of {1, 3, 5} has its own maximum
ODD_BIASED_RING = "nodes 6\n" + "".join(f"edge {i} {i % 6 + 1} -1\n" for i in range(1, 7)) + "bias 1 4\nbias 3 2\nbias 5 1\nbias 2 0.5\n"


@pytest.mark.parametrize(
    "cutset, members",
    [("5,1,3,1", [1, 3, 5]), ("3,3", [3]), ("auto", [])],
    ids=["three", "one", "none"],
)
def test_oracle_cond_rows_are_in_code_order_with_the_lowest_id_first(capsys, tmp_path, cutset, members):
    import goodnet

    text = ODD_BIASED_RING if members else serialize_network(random_network("tree", 8, seed=1))
    net = goodnet.parse_network(text)
    path = tmp_path / "net.net"
    path.write_text(text)
    code, out, err = run_cli(capsys, "oracle", "--net", str(path), "--cutset", cutset)
    assert (code, err) == (0, "")
    rows = [line for line in out.splitlines() if line.startswith("COND ")]
    k = len(members)
    expected = []
    for c in range(2**k):
        bits = [(c >> (k - 1 - i)) & 1 for i in range(k)]
        value = goodnet.tree_conditioned_max(net, dict(zip(members, bits)))[0]
        expected.append(f"COND y={''.join(map(str, bits))} goodness={value}")
    assert rows == expected
    assert len({row.split()[2] for row in rows}) == len(rows)  # the maxima differ, so order shows
    report = goodnet.cutset_exact_optimize(net, goodnet.plan_from_members(net, members))
    assert rows == [f"COND y={''.join(map(str, bits))} goodness={value}" for bits, value in report.conditionings]
    if not members:
        assert rows == [f"COND y= goodness={report.gmax}"]


def test_oracle_cutset_auto_conditions_on_an_acyclic_net(capsys, tmp_path):
    # greedy_cutset leaves no node on a tree, and the empty cutset is still a
    # conditioning: one code, solved by the forest DP, not the exhaustive scan
    # (capped at 26 nodes)
    import goodnet

    net = random_network("tree", 40, seed=3)
    assert goodnet.greedy_cutset(net).members == frozenset()
    path = tmp_path / "tree40.net"
    path.write_text(serialize_network(net))
    code, out, err = run_cli(capsys, "oracle", "--net", str(path), "--cutset", "auto")
    assert (code, err) == (0, "")
    head, witness, cond = out.splitlines()
    assert head == "OPT goodness=65 count=1" and cond == "COND y= goodness=65"
    assert net.goodness([int(b) for b in witness]) == goodnet.Weight.from_decimal("65")


def test_oracle_size_cap(capsys):
    import goodnet

    big = goodnet.serialize_network(goodnet.Network(27))
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".net", delete=False) as fh:
        fh.write(big)
        path = fh.name
    try:
        code, _, err = run_cli(capsys, "oracle", "--net", path)
        assert code == 1 and "error" in err
    finally:
        os.unlink(path)


def test_oracle_net_file_round_trip(capsys, tmp_path):
    import goodnet

    path = tmp_path / "fig1.net"
    path.write_text(goodnet.serialize_network(goodnet.fig1()))
    code, out, _ = run_cli(capsys, "oracle", "--net", str(path))
    assert code == 0 and "OPT goodness=3 count=1" in out


def test_demo_unknown_name(capsys):
    code, _, err = run_cli(capsys, "demo", "warp")
    assert code == 1 and "unknown demo" in err


def test_demo_fig9(capsys):
    code, out, _ = run_cli(capsys, "demo", "fig9")
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS: demo fig9"


@pytest.mark.parametrize(
    "inconclusive, code, verdict",
    [(False, 1, "FAIL: demo broken"), (True, 2, "FAIL: demo broken (inconclusive)")],
    ids=["failed", "inconclusive"],
)
def test_demo_failure_exit_codes(capsys, monkeypatch, inconclusive, code, verdict):
    result = DemoResult("broken", passed=False, lines=["detail"], inconclusive=inconclusive)
    monkeypatch.setitem(experiments.DEMOS, "broken", lambda: result)
    assert run_cli(capsys, "demo", "broken") == (code, f"detail\n{verdict}\n", "")


@pytest.mark.parametrize("sched", ["sync-all:7", "central-random:xyz", "fair-excl:3"])
def test_run_refuses_an_argument_to_a_scheduler_that_takes_none(capsys, sched):
    code, out, err = run_cli(capsys, "run", "--fixture", "fig1", "--sched", sched)
    assert (code, out) == (1, "")
    assert err == f"error: scheduler '{sched.partition(':')[0]}' takes no argument, got '{sched}'\n"


def test_run_refuses_a_temperature_for_other_rules(capsys):
    code, out, err = run_cli(capsys, "run", "--fixture", "fig1", "--rule", "hopfield", "--temp", "3")
    assert (code, out) == (1, "")
    assert err == "error: a temperature is only meaningful with the boltzmann rule, not 'hopfield'\n"


@pytest.mark.parametrize("name", ["thm41", "thm42", "fig9", "linear"])
@pytest.mark.parametrize("flag", [("--trials", "3"), ("--seed", "1")], ids=["trials", "seed"])
def test_demo_without_randomness_refuses_trials_and_seed(capsys, name, flag):
    code, out, err = run_cli(capsys, "demo", name, *flag)
    assert (code, out) == (1, "")
    assert err == f"error: demo {name} takes neither --trials nor --seed\n"


def test_bind_demo_takes_the_demos_own_parameters_without_running_it():
    with pytest.raises(ValueError, match="takes neither --trials nor --seed"):
        bind_demo(build_parser().parse_args(["demo", "thm41", "--trials", "3"]))
    bound = bind_demo(build_parser().parse_args(["demo", "dominance", "--seed", "4"]))
    assert bound.keywords == {"seed": 4}


def test_demo_selfstab_small(capsys):
    code, out, _ = run_cli(capsys, "demo", "selfstab", "--trials", "5", "--seed", "3")
    assert code == 0
    assert "5/5" in out
    assert out.strip().splitlines()[-1] == "PASS: demo selfstab"


# Full stdout of two example51 cutset runs, as printed before registers
# held integer micros: decimal g0/g1 (such as -0.1), per-neighbor cg1
# pairs, pointer sets, running goodness and illegal counts.
EXAMPLE51_CUTSET_TSV = """\
0\t1\t1\t0\t5\t1:p=2|3|4|5
1\t1\t2\t0\t5\t2:g1=199.9,2:p=3
2\t1\t3\t-0.1\t5\t3:x=1,3:g0=199.8,3:g1=199.8
3\t1\t4\t-0.1\t5\t4:p=5
4\t1\t5\t-0.1\t5\t
5\t2\t1\t99.8\t5\t1:x=1
6\t2\t2\t249.7\t5\t2:x=1
7\t2\t3\t249.7\t5\t
8\t2\t4\t249.7\t5\t
9\t2\t5\t249.7\t5\t
10\t3\t1\t249.7\t5\t1:g0=-0.1,1:cg1=2:-50.1|3:99.9|4:2.9|5:2.9
11\t3\t2\t249.7\t5\t2:g0=-0.1,2:g1=149.8
12\t3\t3\t249.7\t5\t3:g0=249.6,3:g1=249.6
13\t3\t4\t249.7\t5\t4:g0=-0.1,4:g1=1.9
14\t3\t5\t248.7\t5\t5:x=1,5:g0=0.8,5:g1=0.8
15\t4\t1\t248.7\t5\t
16\t4\t2\t248.7\t5\t
17\t4\t3\t248.7\t5\t
18\t4\t4\t250.7\t5\t4:x=1
19\t4\t5\t250.7\t5\t
20\t5\t1\t250.7\t5\t
21\t5\t2\t250.7\t5\t
22\t5\t3\t250.7\t5\t
23\t5\t4\t250.7\t5\t
24\t5\t5\t250.7\t5\t
25\t6\t1\t250.7\t5\t
26\t6\t2\t250.7\t5\t
27\t6\t3\t250.7\t5\t
28\t6\t4\t250.7\t5\t
RESULT stable=1 passes=6 goodness=250.7 assignment=11111
"""

EXAMPLE51_CUTSET_SYNC_TSV = """\
0\t1\t1,2,3,4,5\t0\t5\t1:p=2|3|4|5
1\t1\t1,2,3,4,5\t0\t5\t2:g1=199.9,2:p=3,3:g1=199.9,3:p=2,4:p=5,5:p=4
2\t1\t1,2,3,4,5\t199.8\t5\t2:x=1,2:g0=199.8,2:g1=199.8,2:p=-,3:x=1,3:g0=199.8,3:g1=199.8,3:p=-,4:p=-,5:p=-
3\t1\t1,2,3,4,5\t249.7\t5\t1:x=1,2:g0=0,2:g1=199.9,2:p=3,3:g0=0,3:g1=199.9,3:p=2,4:p=5,5:p=4
4\t1\t1,2,3,4,5\t249.7\t5\t1:g0=-0.1,1:cg1=2:-50.1|3:99.9|4:2.9|5:2.9,2:g0=199.8,2:g1=199.8,2:p=-,3:g0=199.8,3:g1=199.8,3:p=-,4:p=-,5:p=-
5\t2\t1,2,3,4,5\t249.7\t5\t2:g0=-0.1,2:g1=149.8,2:p=3,3:g0=99.8,3:g1=299.8,3:p=2,4:g0=-0.1,4:g1=1.9,4:p=5,5:g0=-0.1,5:g1=1.9,5:p=4
6\t2\t1,2,3,4,5\t250.7\t5\t2:g0=249.6,2:g1=249.6,2:p=-,3:g0=249.6,3:g1=249.6,3:p=-,4:x=1,4:g0=0.8,4:g1=0.8,4:p=-,5:x=1,5:g0=0.8,5:g1=0.8,5:p=-
7\t2\t1,2,3,4,5\t250.7\t5\t2:g0=-0.1,2:g1=149.8,2:p=3,3:g0=99.8,3:g1=299.8,3:p=2,4:g0=-0.1,4:g1=1.9,4:p=5,5:g0=-0.1,5:g1=1.9,5:p=4
8\t2\t1,2,3,4,5\t250.7\t5\t2:g0=249.6,2:g1=249.6,2:p=-,3:g0=249.6,3:g1=249.6,3:p=-,4:g0=0.8,4:g1=0.8,4:p=-,5:g0=0.8,5:g1=0.8,5:p=-
9\t2\t1,2,3,4,5\t250.7\t5\t2:g0=-0.1,2:g1=149.8,2:p=3,3:g0=99.8,3:g1=299.8,3:p=2,4:g0=-0.1,4:g1=1.9,4:p=5,5:g0=-0.1,5:g1=1.9,5:p=4
10\t3\t1,2,3,4,5\t250.7\t5\t2:g0=249.6,2:g1=249.6,2:p=-,3:g0=249.6,3:g1=249.6,3:p=-,4:g0=0.8,4:g1=0.8,4:p=-,5:g0=0.8,5:g1=0.8,5:p=-
11\t3\t1,2,3,4,5\t250.7\t5\t2:g0=-0.1,2:g1=149.8,2:p=3,3:g0=99.8,3:g1=299.8,3:p=2,4:g0=-0.1,4:g1=1.9,4:p=5,5:g0=-0.1,5:g1=1.9,5:p=4
12\t3\t1,2,3,4,5\t250.7\t5\t2:g0=249.6,2:g1=249.6,2:p=-,3:g0=249.6,3:g1=249.6,3:p=-,4:g0=0.8,4:g1=0.8,4:p=-,5:g0=0.8,5:g1=0.8,5:p=-
13\t3\t1,2,3,4,5\t250.7\t5\t2:g0=-0.1,2:g1=149.8,2:p=3,3:g0=99.8,3:g1=299.8,3:p=2,4:g0=-0.1,4:g1=1.9,4:p=5,5:g0=-0.1,5:g1=1.9,5:p=4
14\t3\t1,2,3,4,5\t250.7\t5\t2:g0=249.6,2:g1=249.6,2:p=-,3:g0=249.6,3:g1=249.6,3:p=-,4:g0=0.8,4:g1=0.8,4:p=-,5:g0=0.8,5:g1=0.8,5:p=-
RESULT stable=0 passes=3 goodness=250.7 assignment=11111
"""

FIG1_FAIR_EXCL_TSV = """\
0\t1\t1,2,3,4,5\t0\t2\t1:g0=2,1:g1=1,1:p=3,2:x=0,2:g1=2,2:p=3,3:x=1,5:g0=1,5:p=4
1\t1\t1\t0\t2\t
2\t1\t1,2\t2\t2\t2:x=1
3\t1\t2\t2\t2\t
4\t1\t3\t2\t0\t3:g0=2,3:g1=2,3:p=4
5\t2\t3\t2\t0\t
6\t2\t1,2,3,4\t0\t0\t4:x=0,4:g0=3,4:g1=3
7\t2\t4\t0\t0\t
8\t2\t1,2,3,4,5\t2\t0\t3:x=0,5:x=1
9\t2\t5\t2\t0\t
10\t3\t1,2,4\t3\t0\t2:x=0
11\t3\t1\t3\t0\t
12\t3\t2\t3\t0\t
13\t3\t2\t3\t0\t
14\t3\t1,2,3,4,5\t3\t0\t
15\t4\t3\t3\t0\t
16\t4\t2\t3\t0\t
17\t4\t4\t3\t0\t
18\t4\t2,5\t3\t0\t
19\t4\t5\t3\t0\t
20\t5\t2,3,5\t3\t0\t
RESULT stable=1 passes=5 goodness=3 assignment=10001
"""

RING6_HOPFIELD_TSV = """\
0\t1\t1\t2\t6\t
1\t1\t1\t2\t6\t
2\t1\t1\t2\t6\t
3\t1\t3\t2\t6\t
4\t1\t2\t3\t6\t2:x=1
5\t1\t6\t3\t6\t
6\t2\t6\t3\t6\t
7\t2\t3\t3\t6\t
8\t2\t3\t3\t6\t
9\t2\t5\t3\t6\t
10\t2\t2\t3\t6\t
11\t2\t5\t3\t6\t
12\t3\t1\t3\t6\t
13\t3\t5\t3\t6\t
14\t3\t6\t3\t6\t
15\t3\t2\t3\t6\t
16\t3\t4\t3\t6\t
RESULT stable=1 passes=3 goodness=3 assignment=010101
"""

EXAMPLE51_CUTSET = ("run", "--fixture", "example51", "--rule", "activate-with-cutset", "--format", "tsv")


@pytest.mark.parametrize(
    "argv, code, golden",
    [
        (EXAMPLE51_CUTSET, 0, EXAMPLE51_CUTSET_TSV),
        ((*EXAMPLE51_CUTSET, "--sched", "sync-all", "--max-passes", "3"), 2, EXAMPLE51_CUTSET_SYNC_TSV),
        (
            ("run", "--fixture", "fig1", "--rule", "activate", "--sched", "fair-excl",
             "--init", "random", "--seed", "5", "--format", "tsv"),
            0,
            FIG1_FAIR_EXCL_TSV,
        ),
        (
            ("run", "--fixture", "ring6", "--rule", "hopfield", "--sched", "central-random",
             "--init", "random", "--seed", "2", "--format", "tsv"),
            0,
            RING6_HOPFIELD_TSV,
        ),
    ],
    ids=["central-rr", "sync-all", "fair-excl", "hopfield"],
)
def test_cutset_tsv_output_is_unchanged(capsys, argv, code, golden):
    assert run_cli(capsys, *argv)[:2] == (code, golden)


@pytest.mark.parametrize(
    "rule, sched",
    [("activate", "sync-all"), ("activate", "fair-excl"), ("activate-with-cutset", "fair-excl")],
)
def test_array_pass_leaves_the_tsv_trace_byte_identical(capsys, monkeypatch, tmp_path, rule, sched):
    # n=60: the cutoff is 21 units; fair-excl's random subsets fall on both
    # sides.  Every activate event past it takes the array pass; cutset
    # events never do, and print the same bytes either way
    path = tmp_path / "sparse60.net"
    path.write_text(serialize_network(random_network("sparse", 60, m=6, seed=4)))
    argv = ["run", "--net", str(path), "--rule", rule, "--sched", sched, "--init", "random",
            "--seed", "3", "--max-passes", "2", "--format", "tsv"]
    if rule == "activate-with-cutset":
        argv += ["--cutset", "auto"]
    sizes = []
    array_event = engine._array_event
    monkeypatch.setattr(engine, "_array_event", lambda *args: sizes.append(len(args[2])) or array_event(*args))
    fast = run_cli(capsys, *argv)
    lines = fast[1].splitlines()
    assert fast[0] == 2 and len(lines) == 121  # 120 events, then RESULT
    events = [len(line.split("\t")[2].split(",")) for line in lines[:-1]]
    cutoff = engine.ARRAY_MIN_UNITS + 60 // 12
    assert any(size >= cutoff for size in events) and (sched == "sync-all" or min(events) < cutoff)
    assert sizes == ([size for size in events if size >= cutoff] if rule == "activate" else [])
    sizes.clear()
    monkeypatch.setattr(engine, "ARRAY_MIN_UNITS", 61)
    assert run_cli(capsys, *argv) == fast and not sizes


@pytest.mark.parametrize(
    "argv, source, token",
    [
        (("run", "--fixture", "fig1", "--sched", "central-rr:1,x"), "scheduler 'central-rr:1,x'", "x"),
        (("run", "--fixture", "fig1", "--sched", "scripted:1,,2"), "scheduler 'scripted:1,,2'", ""),
        (("run", "--fixture", "fig1", "--sched", "central-rr:"), "scheduler 'central-rr:'", ""),
        (("run", "--fixture", "example51", "--rule", "activate-with-cutset", "--cutset", ""), "--cutset ''", ""),
        (("oracle", "--fixture", "example51", "--cutset", ","), "--cutset ','", ""),
        (("oracle", "--fixture", "example51", "--cutset", "1;2"), "--cutset '1;2'", "1;2"),
        # int() would read this as node 11 of the 12-node chain
        (("oracle", "--fixture", "chain2i:6", "--cutset", "1_1"), "--cutset '1_1'", "1_1"),
    ],
    ids=[
        "sched-letter", "sched-empty-entry", "sched-empty-list",
        "run-cutset-empty", "oracle-cutset-comma", "oracle-cutset-semicolon", "oracle-cutset-underscore",
    ],
)
def test_node_id_lists_refuse_empty_and_non_integer_entries(capsys, argv, source, token):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {source}: bad node id {token!r}, expected comma-separated integers\n"


@pytest.mark.parametrize(
    "name, arg",
    [
        ("chain2i:x", "x"),
        ("chain2i:", ""),
        ("chain2i:1_0", "1_0"),  # int() would read these three as 10, 3 and 3
        ("illegal_ring: 3", " 3"),
        ("illegal_ring:+3", "+3"),
        ("illegal_ring:\u0663", "\u0663"),  # ARABIC-INDIC DIGIT THREE, which int() reads as 3
    ],
    ids=["letter", "empty", "underscore", "space", "plus", "non-ascii-digit"],
)
def test_fixture_arguments_refuse_anything_but_ascii_digits(capsys, name, arg):
    code, out, err = run_cli(capsys, "run", "--fixture", name)
    assert (code, out) == (1, "")
    assert err == f"error: fixture {name!r}: bad argument {arg!r}, expected an integer\n"


def test_node_id_lists_keep_repeats(capsys):
    assert run_cli(capsys, "run", "--fixture", "fig1", "--sched", "central-rr:1,2,3,4,5,5")[0] == 0
    once = run_cli(capsys, "oracle", "--fixture", "example51", "--cutset", "1")
    assert run_cli(capsys, "oracle", "--fixture", "example51", "--cutset", "1,1") == once


# README's `goodnet oracle --fixture example51 --cutset 1` output
EXAMPLE51_ORACLE = """\
OPT goodness=250.7 count=1
11111
COND y=0 goodness=199.8
COND y=1 goodness=250.7
"""


def test_oracle_defaults_to_the_declared_cutset(capsys, tmp_path):
    import goodnet

    assert run_cli(capsys, "oracle", "--fixture", "example51", "--cutset", "1") == (0, EXAMPLE51_ORACLE, "")
    assert run_cli(capsys, "oracle", "--fixture", "example51") == (0, EXAMPLE51_ORACLE, "")
    text = goodnet.serialize_network(goodnet.example51())
    assert "\ncutset 1\n" in text
    path = tmp_path / "example51.net"
    path.write_text(text)
    assert run_cli(capsys, "oracle", "--net", str(path)) == (0, EXAMPLE51_ORACLE, "")


def test_the_reused_parser_leaks_no_state_between_calls(capsys, tmp_path):
    # one process, one parser: every call prints what a fresh interpreter prints
    assert build_parser() is build_parser()
    path = tmp_path / "chain.net"
    path.write_text(serialize_network(random_network("sparse", 12, m=3, seed=4)))
    calls = [
        ("oracle", "--net", str(path), "--cutset", "auto"),
        ("run", "--fixture", "fig1", "--max-passes", "x"),
        ("demo", "thm41"),
        ("oracle", "--fixture", "example51"),
        ("oracle", "--net", str(path), "--cutset", "auto"),
    ]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    for argv in calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "goodnet", *argv], capture_output=True, text=True, env=env)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert code == 0 and build_parser() is build_parser()


@pytest.mark.parametrize("temp", ["١", "٣.٥", "1.٥"])
def test_run_refuses_a_temperature_in_non_ascii_digits(capsys, temp):
    code, out, err = run_cli(capsys, "run", "--fixture", "fig1", "--rule", "boltzmann", "--temp", temp, "--seed", "1")
    assert (code, out) == (1, "")
    assert err == f"error: --temp: malformed number: {temp!r}\n"


LONG_ID = "1" * 5000


@pytest.mark.parametrize(
    "argv, message",
    [
        (("run", "--fixture", "chain2i:" + LONG_ID), "fixture chain2i: argument of 5000 digits, more than 18"),
        (("run", "--fixture", "illegal_ring:" + "7" * 19), "fixture illegal_ring: argument of 19 digits, more than 18"),
        (
            ("oracle", "--fixture", "example51", "--cutset", "1," + LONG_ID),
            f"--cutset {'1,' + LONG_ID!r}: node id of 5000 digits, more than 18",
        ),
        (
            ("run", "--fixture", "fig1", "--sched", "central-rr:" + LONG_ID),
            f"scheduler {'central-rr:' + LONG_ID!r}: node id of 5000 digits, more than 18",
        ),
        (
            ("run", "--fixture", "fig1", "--rule", "boltzmann", "--seed", "1", "--temp", LONG_ID),
            "--temp: whole part of 5000 digits, more than 18",
        ),
    ],
    ids=["chain2i", "illegal_ring", "cutset", "central-rr", "temp"],
)
def test_digit_runs_too_long_for_int_are_refused_by_length_naming_the_flag(capsys, monkeypatch, argv, message):
    # `int` would raise its own bare ValueError past 4,300 digits, naming no flag;
    # no parametrized fixture is built, not even when a check is missing
    for name in ("chain2i", "illegal_ring"):
        monkeypatch.setattr(f"goodnet.fixtures.{name}", lambda arg: pytest.fail("a fixture was built"))
    assert run_cli(capsys, *argv) == (1, "", f"error: {message}\n")


def test_a_network_file_with_a_node_count_too_long_for_int_is_refused_with_its_line(capsys, tmp_path):
    path = tmp_path / "long.net"
    path.write_text("# a node count of 5000 digits\nnodes " + "1" * 5000 + "\n")
    assert run_cli(capsys, "run", "--net", str(path)) == (1, "", "error: line 2: node count of 5000 digits, more than 18\n")


@pytest.mark.parametrize(
    "temp, message",
    [
        ("0", "temperature must be positive, got '0'"),
        ("-1.5", "temperature must be positive, got '-1.5'"),
        ("", "malformed number: ''"),
        ("0.0000001", "more than 6 fractional digits: '0.0000001'"),
    ],
    ids=["zero", "negative", "empty", "fraction"],
)
def test_every_refusal_of_a_temperature_names_the_flag(capsys, tmp_path, temp, message):
    path = tmp_path / "t.tsv"
    argv = ("run", "--fixture", "fig1", "--rule", "boltzmann", "--seed", "1", "--temp", temp, "--trace", str(path))
    assert run_cli(capsys, *argv) == (1, "", f"error: --temp: {message}\n")
    assert not path.exists()


def test_a_network_file_past_the_node_cap_is_refused_with_its_line(capsys, tmp_path):
    path = tmp_path / "huge.net"
    path.write_text("nodes 99999999999\n")
    assert run_cli(capsys, "oracle", "--net", str(path)) == (1, "", "error: line 1: node count 99999999999 is more than 100000\n")


@pytest.mark.parametrize("name, cap", [("chain2i:50001", "2 <= i <= 50000 (at most 100000 nodes)"), ("illegal_ring:100001", "3 <= n <= 100000")])
def test_fixture_node_caps_are_refused_naming_the_cap(capsys, monkeypatch, name, cap):
    monkeypatch.setattr("goodnet.fixtures.W", lambda value: pytest.fail("a fixture was built"))
    base, _, arg = name.partition(":")
    assert run_cli(capsys, "run", "--fixture", name) == (1, "", f"error: {base} needs {cap}, got {arg}\n")


# (fixture, rule, scheduler, init, seed, max passes, temperature), each run past
# 1,024 events (many 8 KiB file buffers of lines) or to a stop; "sparse" is a
# 300-node sparse net read from a file, and sync-all on chain2i:5 oscillates,
# so an untraced run would skip its cycles
STREAMED_RUNS = {
    "central-rr": ("sparse", "activate-with-cutset", "central-rr", "random", 3, 5, None),
    "sync-all-cycle": ("chain2i:5", "activate", "sync-all", "zeros", 0, 300, None),
    "fair-excl": ("example51", "activate-with-cutset", "fair-excl", "random", 5, 100, None),
    "boltzmann": ("ring6", "boltzmann", "central-random", "random", 7, 200, "1"),
}


@pytest.mark.parametrize("case", sorted(STREAMED_RUNS))
def test_the_streamed_trace_is_the_collected_trace(capsys, tmp_path, case):
    name, rule, sched, init, seed, passes, temp = STREAMED_RUNS[case]
    if name == "sparse":
        net = random_network("sparse", 300, m=6, seed=1)
        net_path = tmp_path / "sparse.net"
        net_path.write_text(serialize_network(net))
        source = ("--net", str(net_path))
    else:
        net = fixture(name)
        source = ("--fixture", name)
    trace = []
    expected = run(
        net, rule, parse_scheduler(sched, seed=seed), init=init, seed=seed, max_passes=passes,
        temperature=Weight.from_decimal(temp) if temp else None, collect_trace=trace.append,
    )
    text = "\n".join(trace_line(ev) for ev in trace) + "\n"
    assert len(trace) > 1_024 or (expected.stable and case == "fair-excl")
    trace_path = tmp_path / "trace.tsv"
    argv = ["run", *source, "--rule", rule, "--sched", sched, "--init", init, "--seed", str(seed),
            "--max-passes", str(passes), "--format", "tsv", "--trace", str(trace_path)]
    if temp:
        argv += ["--temp", temp]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (0 if expected.stable else 2, text + result_line(expected) + "\n", "")
    assert trace_path.read_text() == text


def test_a_long_traced_run_keeps_flat_memory():
    # tracemalloc peaks of in-process runs with their stdout counted, not kept:
    # each line goes out as its event happens, so ten times the events take no more memory
    class LineCounter:
        lines = 0

        def write(self, text):
            self.lines += text.count("\n")

        def flush(self):
            pass

    def peak(passes):
        # a boltzmann run on fig1 runs its whole budget: 5 one-unit events a pass
        sink = LineCounter()
        argv = ["run", "--fixture", "fig1", "--rule", "boltzmann", "--temp", "1", "--seed", "1",
                "--max-passes", str(passes), "--format", "tsv"]
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(sink):
                code = main(argv)
            return code, sink.lines, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # the parser and every import are in place before either measurement
    code, lines, small = peak(200)
    assert (code, lines) == (2, 1_001)
    code, lines, large = peak(2_000)
    assert (code, lines) == (2, 10_001)
    assert large <= small + 1_000_000, (small, large)


def _closed_stdout_run(argv):
    """Start `python -m goodnet` on `argv`, read its first line, then close its
    stdout; returns (first line, exit code, stderr)."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "goodnet", *argv], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return first, proc.wait(timeout=60), err


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
def test_a_closed_stdout_leaves_the_trace_path_as_it_was(tmp_path, existing):
    # the run stops at its first write after the reader has gone, and the
    # trace it was streaming is dropped with it
    path = tmp_path / "t.tsv"
    if existing:
        path.write_bytes(b"old contents\n")
    argv = ["run", "--fixture", "chain2i:5", "--sched", "sync-all", "--max-passes", "2000", "--format", "tsv",
            "--trace", str(path)]
    first, code, err = _closed_stdout_run(argv)
    assert first.startswith(b"0\t1\t") and (code, err) == (141, b"")
    assert list(tmp_path.iterdir()) == ([path] if existing else [])
    if existing:
        assert path.read_bytes() == b"old contents\n"


def test_a_trace_file_keeps_its_mode_and_a_symlink_stays_a_link(capsys, tmp_path):
    # the trace streams into a temp file that replaces the file only after the run
    target = tmp_path / "target.tsv"
    target.write_bytes(b"old contents\n")
    target.chmod(0o640)
    link = tmp_path / "link.tsv"
    link.symlink_to(target)
    code, out, _ = run_cli(capsys, "run", "--fixture", "fig1", "--format", "tsv", "--trace", str(link))
    assert code == 0 and target.read_text() == out[: out.rindex("RESULT")]
    assert link.is_symlink() and (target.stat().st_mode & 0o777) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.tsv", "target.tsv"]
    fresh = tmp_path / "fresh.tsv"
    open(tmp_path / "reference", "w").close()  # the mode a new file gets under this umask
    assert run_cli(capsys, "run", "--fixture", "fig1", "--trace", str(fresh))[0] == 0
    assert fresh.stat().st_mode == (tmp_path / "reference").stat().st_mode


# Argv pieces for the fuzz test below.  Every budget stays small: a digit run
# lands only where its size is refused or costs nothing, so no drawn run goes
# past 50 passes on 18 nodes and no demo past its default trials.
_ODD_NUMBERS = st.sampled_from(
    ["", "0", "-0", "-1", "+3", "+-", ".", "1.5", "-2.25", "0.0000001", "1e3", " 3", "1_0",
     "\u0663", "\u0661\u0662", "\uff13", "1.\u0665", "-\u0663.5"]
)
_NUMBERS = st.one_of(st.text("0123456789", min_size=1, max_size=5_000), _ODD_NUMBERS)
_IDS = st.one_of(st.integers(0, 7).map(str), _NUMBERS)
_ID_LISTS = st.lists(_IDS, min_size=1, max_size=3).map(",".join)
# "9" and 5+ digits is past every node cap, so it is refused before anything is built
_FIXTURE_ARGS = st.one_of(
    st.integers(0, 9).map(str), st.text("0123456789", min_size=5, max_size=5_000).map("9".__add__), _ODD_NUMBERS
)
_FIXTURES = st.one_of(
    st.sampled_from(["fig1", "example51", "ring6", "", "nope"]),
    st.builds("{}:{}".format, st.sampled_from(["chain2i", "illegal_ring", "fig1"]), _FIXTURE_ARGS),
)
# "1" and 6+ digits is past the node cap
_NODE_COUNTS = st.one_of(
    st.integers(1, 6).map(str), st.text("0123456789", min_size=6, max_size=5_000).map("1".__add__), _ODD_NUMBERS
)
_DIRECTIVES = st.one_of(
    st.builds("edge {} {} {}".format, _IDS, _IDS, _NUMBERS),
    st.builds("bias {} {}".format, _IDS, _NUMBERS),
    st.builds("cutset {}".format, _IDS),
    st.sampled_from(["edge 1 2", "nodes 3", "# comment", "", "wire 1 2 3"]),
)
_NET_TEXTS = st.builds(lambda count, lines: "\n".join([f"nodes {count}", *lines]), _NODE_COUNTS, st.lists(_DIRECTIVES, max_size=4))
_SCHEDULERS = st.one_of(
    st.sampled_from(["central-rr", "central-random", "sync-all", "fair-excl", "sync-all:1", "scripted:", "chaotic"]),
    st.builds("{}:{}".format, st.sampled_from(["central-rr", "scripted"]), _ID_LISTS),
)
_SMALL_COUNTS = st.one_of(st.integers(-1, 3).map(str), st.sampled_from(["", "x", "+2", "1.5", "\u0663"]))
_PASSES = st.one_of(st.integers(-1, 50).map(str), _ODD_NUMBERS)  # odd ones read as at most 12


@st.composite
def _argv(draw):
    """A `run`, `oracle` or `demo` argv, and the text of the net file its
    `--net NET` names (None without one); `--trace TRACE` names a file."""
    command = draw(st.sampled_from(["run", "oracle", "demo"]))
    net_text = None
    if command == "demo":
        # thm41 (half a second) and linear (seconds) are left out for time
        argv = ["demo", draw(st.sampled_from(["thm42", "fig9", "selfstab", "dominance", "", "nope"]))]
        options = {"--trials": _SMALL_COUNTS, "--seed": _NUMBERS}
    elif draw(st.booleans()):
        argv = [command, "--fixture", draw(_FIXTURES)]
        options = {"--cutset": st.one_of(st.just("auto"), _ID_LISTS)}
    else:
        net_text = draw(_NET_TEXTS)
        argv = [command, "--net", "NET"]
        options = {"--cutset": st.one_of(st.just("auto"), _ID_LISTS)}
    if command == "run":
        options.update({
            "--rule": st.sampled_from(RULES),
            "--sched": _SCHEDULERS,
            "--seed": _NUMBERS,
            "--init": st.sampled_from(["zeros", "random"]),
            "--temp": _NUMBERS,
            "--max-passes": _PASSES,
            "--format": st.sampled_from(["summary", "tsv"]),
            "--trace": st.sampled_from(["TRACE", ""]),
        })
    for flag in draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
        argv += [flag, draw(options[flag])]
    return argv, net_text


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("argv-fuzz")


@settings(max_examples=60, deadline=None)
@given(_argv())
@example((["run", "--fixture", ""], None))  # '' names a fixture: it is not a missing --fixture
@example((["oracle", "--net", "NET"], "nodes 99999999999"))  # refused before any per-node list is built
@example((["run", "--fixture", "fig1", "--rule", "boltzmann", "--seed", "1", "--temp", "1" * 5_000], None))
def test_any_argv_exits_0_1_or_2_without_a_traceback(fuzz_dir, drawn):
    # in process: 0, or 1 with one `error:` line, or 2 (argparse's refusal or
    # a run that did not stabilize); an exception escaping `main` fails here
    argv, net_text = drawn
    if net_text is not None:
        (fuzz_dir / "net").write_text(net_text, encoding="utf-8")
    argv = [{"NET": str(fuzz_dir / "net"), "TRACE": str(fuzz_dir / "trace.tsv")}.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2, argv
            return
    if code == 1:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, (argv, err.getvalue())
    else:
        assert code in (0, 2) and err.getvalue() == "", (argv, code, err.getvalue())
