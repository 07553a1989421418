from goodnet.cli import main


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


def test_run_missing_file(capsys):
    code, _, err = run_cli(capsys, "run", "--net", "missing.net")
    assert code == 1
    assert "error" in err


def test_run_rejects_round_robin_order_that_skips_units(capsys):
    code, out, err = run_cli(capsys, "run", "--fixture", "ring6", "--sched", "central-rr:1,2,3")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "never schedules node 4" in err


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


def test_run_preset_requires_illegal_ring(capsys):
    code, _, err = run_cli(capsys, "run", "--fixture", "fig1", "--init", "preset")
    assert code == 1 and "preset" in err
    code, out, _ = run_cli(
        capsys, "run", "--fixture", "illegal_ring:5", "--init", "preset",
        "--max-passes", "20",
    )
    assert code in (0, 2)


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


def test_demo_selfstab_small(capsys):
    code, out, _ = run_cli(capsys, "demo", "selfstab", "--trials", "5", "--seed", "3")
    assert code == 0
    assert "5/5" in out
    assert out.strip().splitlines()[-1] == "PASS: demo selfstab"
