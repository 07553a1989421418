import os
import subprocess
import sys
from pathlib import Path

import pytest

from goodnet import engine, experiments, random_network, serialize_network
from goodnet.cli import bind_demo, build_parser, main
from goodnet.experiments import DemoResult


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
    lines = out.strip().splitlines()
    assert lines[-1].startswith("RESULT ")
    first = lines[0].split("\t")
    assert len(first) == 6
    assert first[0] == "0"
    assert trace_path.read_text().splitlines()[0] == lines[0]


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
    [("activate", "sync-all"), ("activate-with-cutset", "fair-excl")],
)
def test_array_pass_leaves_the_tsv_trace_byte_identical(capsys, monkeypatch, tmp_path, rule, sched):
    # n=60: the cutoff is 21 units; fair-excl's random subsets fall on both sides
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
    assert fast[0] == 2 and len(fast[1].splitlines()) == 121  # 120 events, then RESULT
    assert sizes and min(sizes) >= engine.ARRAY_MIN_UNITS + 60 // 12
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
