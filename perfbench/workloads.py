"""The benchmark's workloads: seeded inputs, the timed call, the output check.

Each workload draws sub-seeds from the benchmark seed in ``draw``,
builds its inputs from them in ``setup`` (timed as set-up), runs one
timed iteration in ``iterate`` through the public library or
CLI (looked up at call time, so the traced run can wrap it), and
checks that iteration's output in ``check`` against values computed
here, outside the timed region.  The amount of work is pinned so it
is the same for every seed: a workload whose size drifted with the
seed would mix input variance into its timings.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path
from types import SimpleNamespace

import goodnet
from goodnet import cli
from goodnet.experiments import uniform_chain
from goodnet.network import Network
from goodnet.weights import Weight

SEED_RANGE = 2**32


class CheckFailed(Exception):
    """An iteration's output disagrees with what the benchmark computed."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process with stdout captured; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# ---------------------------------------------------------------------------
# reference arithmetic, independent of the library's own goodness code


def micros(text: str) -> int:
    """Decimal text with at most six fractional digits, as integer millionths."""
    sign = -1 if text.startswith("-") else 1
    whole, _, frac = text.lstrip("+-").partition(".")
    require(whole.isdigit() and (frac == "" or (frac.isdigit() and len(frac) <= 6)), f"bad number {text!r}")
    return sign * (int(whole) * 10**6 + int(frac.ljust(6, "0")))


def goodness_micros(net: Network, bits) -> int:
    """sum_{i<j} w_ij x_i x_j + sum_i theta_i x_i for bits indexed from node 1 at bits[0]."""
    total = sum(w.micros for i, j, w in net.edges() if bits[i - 1] and bits[j - 1])
    return total + sum(net.bias(i).micros for i in net.nodes() if bits[i - 1])


def illegal_count(net: Network, pointers) -> int:
    """Nodes outside the least legal fixed point, computed from the leaves up.

    A node is legal when it points at nobody or at exactly one neighbor
    (its parent) and every other neighbor points at it and is legal.
    """
    waiting = {}
    ready = []
    for i in net.nodes():
        nbs = [j for j, _ in net.neighbors(i)]
        own = pointers[i]
        if len(own) > 1 or (own and next(iter(own)) not in nbs):
            continue
        children = [j for j in nbs if j not in own]
        if all(i in pointers[j] for j in children):
            waiting[i] = len(children)
            if not children:
                ready.append(i)
    legal = set()
    while ready:
        v = ready.pop()
        legal.add(v)
        for i, _ in net.neighbors(v):
            if i in waiting and i not in legal and v not in pointers[i]:
                waiting[i] -= 1
                if waiting[i] == 0:
                    ready.append(i)
    return net.n - len(legal)


def parse_opt(lines: list[str], n: int) -> tuple[int, list[str], list[str]]:
    """OPT header -> (goodness micros, argmax rows, remaining lines)."""
    require(bool(lines) and lines[0].startswith("OPT goodness="), "missing OPT line")
    fields = dict(tok.split("=", 1) for tok in lines[0].split()[1:])
    count = int(fields["count"])
    rows = lines[1 : 1 + count]
    require(count >= 1 and len(rows) == count, f"OPT count={count} but {len(rows)} rows")
    require(all(len(r) == n and set(r) <= {"0", "1"} for r in rows), "malformed argmax row")
    require(len(set(rows)) == count, "repeated argmax row")
    return micros(fields["goodness"]), rows, lines[1 + count :]


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""

    @property
    def why(self) -> str:
        raise NotImplementedError

    def draw(self, seed: int):
        """Sub-seeds for setup, derived from the benchmark seed (not timed)."""
        return random.Random(seed).randrange(SEED_RANGE)

    def setup(self, drawn, workdir: Path):
        """Build the inputs from drawn sub-seeds (timed as setup_s)."""
        raise NotImplementedError

    def iterate(self, inputs):
        raise NotImplementedError

    def check(self, inputs, output) -> None:
        raise NotImplementedError

    def work(self, inputs, output) -> tuple[int, int] | None:
        """(scheduler events, unit activations) of one iteration, if it runs the engine."""
        return None


class ChainRR(Workload):
    name = "chain-rr"

    def __init__(self, n: int = 3200):
        self.n = n
        self.events = 3 * n  # one pass to settle, then the 2n quiet window
        self._gmax = None

    @property
    def why(self) -> str:
        return (
            f"activate, central-rr on a uniform chain n={self.n} (seed-independent), {self.events} singleton "
            "events: each is cheap, so the O(n)-per-call next_set and stability scan dominate"
        )

    def setup(self, drawn, workdir):
        return uniform_chain(self.n)

    def iterate(self, net):
        return goodnet.run(net, "activate", goodnet.CentralRoundRobin(), init="zeros")

    def check(self, net, result):
        if self._gmax is None:
            self._gmax = goodnet.tree_conditioned_max(net, {})[0].micros
        require(result.stable, "chain run did not stabilize")
        require(result.events == self.events, f"{result.events} events, expected {self.events}")
        require(result.goodness_final.micros == self._gmax, f"goodness {result.goodness_final}, optimum {self._gmax}e-6")
        require(goodness_micros(net, result.assignment) == self._gmax, "reported assignment does not score the optimum")

    def work(self, net, result):
        return result.events, result.events


class SyncSparse(Workload):
    name = "sync-sparse"

    def __init__(self, n: int = 220, extra_edges: int = 22):
        self.n = n
        self.extra_edges = extra_edges
        self.passes = 1
        self.events = self.passes * n  # the budget; a sync run never sees a 2n quiet window
        self._digest = None

    @property
    def why(self) -> str:
        return (
            f"activate, sync-all on sparse n={self.n} (+{self.extra_edges} edges), random init, budget pinned to "
            f"{self.events} events ({self.events * self.n} unit updates): view building, rule steps and delta diff do the work"
        )

    def setup(self, drawn, workdir):
        rng = random.Random(drawn)
        net = goodnet.random_network("sparse", self.n, m=self.extra_edges, seed=rng.randrange(SEED_RANGE))
        return SimpleNamespace(net=net, init_seed=rng.randrange(SEED_RANGE))

    def iterate(self, inp):
        return goodnet.run(
            inp.net, "activate", goodnet.SynchronousAll(), init="random", seed=inp.init_seed, max_passes=self.passes
        )

    def check(self, inp, result):
        require(result.events == self.events, f"{result.events} events, expected exactly {self.events}")
        require(goodness_micros(inp.net, result.assignment) == result.goodness_final.micros, "goodness mismatch")
        digest = (result.last_change_step, result.assignment, result.goodness_final.micros)
        if self._digest is None:
            self._digest = digest
        require(digest == self._digest, "repeat of the same inputs gave a different run")

    def work(self, inp, result):
        return result.events, result.events * self.n


class TracedCutset(Workload):
    """`goodnet run --format tsv` with the cutset rule, budget-limited.

    The topology is fixed and the seed draws weights, biases and the
    initial activations.  Pointer dynamics read only the topology, so
    every seed does the same tree directing, the same legality sweeps
    and the same cutset; the 4-pass budget ends the run before the
    pointers settle (they keep changing until pass 15 on this
    topology), so the run always has exactly 4n events.
    """

    name = "traced-cutset"

    def __init__(self, n: int = 600, extra_edges: int = 8, topology_seed: int = 1, passes: int = 4, cutset_size: int = 4):
        self.n = n
        self.extra_edges = extra_edges
        self.topology_seed = topology_seed
        self.passes = passes
        self.cutset_size = cutset_size
        self.events = passes * n
        self._reference = None

    @property
    def why(self) -> str:
        return (
            f"goodnet run --format tsv, activate-with-cutset, auto |Y|={self.cutset_size}, on sparse n={self.n} "
            f"(+{self.extra_edges} edges), {self.events} events: time goes to trace instrumentation and the cutset rule"
        )

    def setup(self, drawn, workdir):
        topology = goodnet.random_network("sparse", self.n, m=self.extra_edges, seed=self.topology_seed)
        rng = random.Random(drawn)

        def draw() -> Weight:
            return Weight.from_int(rng.randint(-5, 5))

        net = Network(self.n, [(i, j, draw()) for i, j, _ in topology.edges()], {i: draw() for i in topology.nodes()})
        path = Path(workdir) / "traced-cutset.net"
        path.write_text(goodnet.serialize_network(net), encoding="utf-8")
        return SimpleNamespace(net=net, path=str(path), init_seed=rng.randrange(SEED_RANGE))

    def argv(self, inp) -> list[str]:
        return [
            "run", "--net", inp.path, "--rule", "activate-with-cutset", "--cutset", "auto",
            "--sched", "central-rr", "--init", "random", "--seed", str(inp.init_seed),
            "--max-passes", str(self.passes), "--format", "tsv",
        ]

    def iterate(self, inp):
        return cli_call(self.argv(inp))

    def check(self, inp, output):
        net = inp.net
        if self._reference is None:
            cutset = goodnet.greedy_cutset(net).members
            require(len(cutset) == self.cutset_size, f"|Y|={len(cutset)}, expected {self.cutset_size}")
            self._reference = goodnet.initial_registers(net, "random", cutset, inp.init_seed)
        code, text = output
        require(code == 2, f"exit code {code}; the pinned budget should end the run (2)")
        lines = text.splitlines()
        require(len(lines) == self.events + 1, f"{len(lines) - 1} trace lines, expected {self.events}")
        x = [0] + [r.x for r in self._reference[1:]]
        pointers = [frozenset()] + [r.points_to for r in self._reference[1:]]
        g = goodness_micros(net, x[1:])
        for step, line in enumerate(lines[:-1]):
            cols = line.split("\t")
            require(len(cols) == 6, f"line {step}: {len(cols)} columns")
            require(cols[0] == str(step) and cols[1] == str(step // net.n + 1), f"line {step}: step/pass {cols[:2]}")
            require(cols[2] == str(step % net.n + 1), f"line {step}: ids {cols[2]}")
            for delta in filter(None, cols[5].split(",")):
                node_text, _, assign = delta.partition(":")
                field, _, value = assign.partition("=")
                node = int(node_text)
                if field == "x" and int(value) != x[node]:
                    gain = net.bias(node).micros + sum(w.micros for j, w in net.neighbors(node) if x[j])
                    x[node] = int(value)
                    g += gain if x[node] else -gain
                elif field == "p":
                    pointers[node] = frozenset() if value == "-" else frozenset(int(t) for t in value.split("|"))
            require(micros(cols[3]) == g, f"line {step}: goodness column {cols[3]}, replay gives {g}e-6")
        require(lines[-2].split("\t")[4] == str(illegal_count(net, pointers)), "last line's illegal count is wrong")
        head, *tokens = lines[-1].split()
        fields = dict(tok.partition("=")[::2] for tok in tokens)
        require(head == "RESULT" and micros(fields.pop("goodness", "")) == g, "RESULT goodness disagrees with the replay")
        bits = "".join(str(b) for b in x[1:])
        require(fields == {"stable": "0", "passes": str(self.passes), "assignment": bits}, "RESULT line disagrees with the replay")

    def work(self, inp, output):
        return self.events, self.events


class OracleScan(Workload):
    """`goodnet oracle` twice: an exhaustive numpy scan of 2**21 states,
    then cutset conditioning with its COND table on n=200, |Y|=9."""

    name = "oracle"

    def __init__(self, scan_n: int = 21, scan_extra: int = 6, dp_n: int = 200, dp_extra: int = 24, cutset_size: int = 9):
        self.scan_n = scan_n
        self.scan_extra = scan_extra
        self.dp_n = dp_n
        self.dp_extra = dp_extra
        self.cutset_size = cutset_size
        self._gmax = None
        self._cond = None

    @property
    def why(self) -> str:
        return (
            f"goodnet oracle: numpy scan of 2^{self.scan_n} states (sparse n={self.scan_n}, +{self.scan_extra} edges), "
            f"then cutset DP on sparse n={self.dp_n} (+{self.dp_extra}) with |Y|={self.cutset_size}: the oracle layer dominates"
        )

    def draw(self, seed):
        """(scan net seed, DP net seed), redrawing the latter until |Y| is pinned."""
        rng = random.Random(seed)
        small_seed = rng.randrange(SEED_RANGE)
        for _ in range(1000):
            big_seed = rng.randrange(SEED_RANGE)
            big = goodnet.random_network("sparse", self.dp_n, m=self.dp_extra, seed=big_seed)
            if len(goodnet.greedy_cutset(big).members) == self.cutset_size:
                return small_seed, big_seed
        raise RuntimeError(f"no n={self.dp_n} net with a greedy cutset of {self.cutset_size} in 1000 draws")

    def setup(self, drawn, workdir):
        small_seed, big_seed = drawn
        small = goodnet.random_network("sparse", self.scan_n, m=self.scan_extra, seed=small_seed)
        big = goodnet.random_network("sparse", self.dp_n, m=self.dp_extra, seed=big_seed)
        paths = []
        for label, net in (("scan", small), ("dp", big)):
            path = Path(workdir) / f"oracle-{label}.net"
            path.write_text(goodnet.serialize_network(net), encoding="utf-8")
            paths.append(str(path))
        return SimpleNamespace(small=small, big=big, small_path=paths[0], big_path=paths[1])

    def iterate(self, inp):
        return cli_call(["oracle", "--net", inp.small_path]), cli_call(["oracle", "--net", inp.big_path, "--cutset", "auto"])

    def check(self, inp, output):
        (code_scan, scan_text), (code_dp, dp_text) = output
        require(code_scan == 0 and code_dp == 0, f"exit codes {code_scan}, {code_dp}")
        if self._gmax is None:
            plan = goodnet.plan_from_members(inp.small, goodnet.greedy_cutset(inp.small).members)
            self._gmax = goodnet.cutset_exact_optimize(inp.small, plan).gmax.micros
        gmax, rows, rest = parse_opt(scan_text.splitlines(), inp.small.n)
        require(gmax == self._gmax, f"scan OPT {gmax}e-6, cutset optimizer {self._gmax}e-6")
        require(not rest, "unexpected lines after the scan's argmax rows")
        require(all(goodness_micros(inp.small, [int(c) for c in r]) == gmax for r in rows), "a scan argmax row misses OPT")

        gmax, rows, cond = parse_opt(dp_text.splitlines(), inp.big.n)
        require(all(goodness_micros(inp.big, [int(c) for c in r]) == gmax for r in rows), "a DP argmax row misses OPT")
        if self._cond is None:
            members = sorted(goodnet.greedy_cutset(inp.big).members)
            self._cond = []
            for code in range(2 ** len(members)):
                y = {node: (code >> (len(members) - 1 - k)) & 1 for k, node in enumerate(members)}
                value = goodnet.tree_conditioned_max(inp.big, y)[0].micros
                self._cond.append(("".join(str(y[node]) for node in members), value))
        require(len(cond) == len(self._cond) == 2**self.cutset_size, f"{len(cond)} COND rows, expected {2**self.cutset_size}")
        values = []
        for line, (bits, value) in zip(cond, self._cond):
            head, y, text = line.split()
            require(head == "COND" and y == f"y={bits}", f"bad COND row {line!r}")
            values.append(micros(text.removeprefix("goodness=")))
            require(values[-1] == value, f"COND y={bits}: {text}, forest DP gives {value}e-6")
        require(max(values) == gmax, "best COND row differs from OPT")


class DemosSmall(Workload):
    """`goodnet demo dominance` and `goodnet demo selfstab`: hundreds of runs
    on 2-14 node nets, where per-run fixed costs dominate.

    The selfstab seed comes from the benchmark seed.  The dominance seed
    is fixed: about 1% of its runs exhaust the 300-pass budget and they
    carry about 45% of its events, so its work swings by a fifth from
    one seed to the next.
    """

    name = "demos-small"

    def __init__(self, dominance_trials: int = 200, selfstab_trials: int = 400, dominance_seed: int = 0):
        self.dominance_trials = dominance_trials
        self.selfstab_trials = selfstab_trials
        self.dominance_seed = dominance_seed

    @property
    def why(self) -> str:
        return (
            f"goodnet demo dominance ({self.dominance_trials} trials) and selfstab ({self.selfstab_trials}): "
            "hundreds of runs on 2-14 node nets, so per-run fixed costs (nets, registers, cutsets, tiny scans) dominate"
        )

    def setup(self, drawn, workdir):
        return [
            ["demo", "dominance", "--trials", str(self.dominance_trials), "--seed", str(self.dominance_seed)],
            ["demo", "selfstab", "--trials", str(self.selfstab_trials), "--seed", str(drawn)],
        ]

    def iterate(self, argvs):
        return [cli_call(argv) for argv in argvs]

    def check(self, argvs, output):
        for argv, (code, text) in zip(argvs, output):
            lines = text.splitlines()
            require(code == 0 and lines[-1:] == [f"PASS: demo {argv[1]}"], f"demo {argv[1]} did not pass")


WORKLOADS = {wl.name: wl for wl in (ChainRR, SyncSparse, TracedCutset, OracleScan, DemosSmall)}
