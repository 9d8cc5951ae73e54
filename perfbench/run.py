"""The energyomega benchmark: seeded CLI workloads, checked answers, optional spans.

    python3 perfbench/run.py --workload ring-query --seed 1 --seconds 28 --trace 0

Run it from a checkout of the repository: it starts ``energyomega`` from
``src/`` as a fresh process per query, one query at a time (a closed
loop with one client), so no in-process cache carries from one query to
the next.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it report the same figures for a reader, with sample counts.

Each workload is a query set made from the seed.  A run makes
``--seconds`` divided by the workload's nominal pass time (measured on a
2-core VM) passes, at least one, and every pass adds new instances of
the same sizes.  The count does not depend on how fast this run happens
to go, so runs stay comparable.  Every query runs once; run_s is the
time per pass.

Times are CPU times (user + system, from ``wait4``) scaled to a
reference speed.  Every query is a single-threaded process that does not
wait on I/O, so its CPU time is its wall time less the time it was ready
but not running.  On a virtual machine that shares its host, the speed
of that CPU time still drifts by 10-40 % from second to second as the
host's other tenants come and go, which spreads the times of the same
code by more than the bounds.  So a fixed calibration loop of Fraction
and dict work (``calibrate``) runs in this process before and after
every query, on the same CPU, and each query's CPU time is scaled by
CAL_REF_S over the mean of those two loops.  The raw CPU and wall times
are printed beside the metrics for a reader.  A traced run makes one
untraced and one traced pass over the same queries.
"""

from __future__ import annotations

import argparse
from array import array
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from layers import LAYERS, moves  # noqa: E402
import reference  # noqa: E402

CLI = "import sys; from energyomega.cli import main; sys.exit(main())"
SETUP_REPEATS = 9
CAL_ITERATIONS = 12000
# The calibration loop's CPU time on a quiet 2-core VM (Xeon, CPython 3).
# Times in the metrics are CPU times scaled to that speed.
CAL_REF_S = 0.040
QUERY_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 165.0
TAIL_BEYOND = 10  # samples above the reported tail percentile


@dataclass
class Query:
    qid: str
    argv: list
    size: int
    instance: str
    # (exit code, stdout) -> None if correct, else (is_wrong_answer, message)
    check: Callable[[int, str], Optional[tuple]]
    answer: Optional[bool] = None  # filled in by the check, for invariants


@dataclass
class Outcome:
    wall: float
    cpu: float  # user + system seconds of the process
    code: int
    stdout: str
    stderr: str
    maxrss_kib: int
    timed_out: bool
    ref_s: float = 0.0  # cpu scaled to the reference speed (see Meter)


@dataclass
class Workload:
    why: str
    passes: int
    queries: list = field(default_factory=list)
    invariants: list = field(default_factory=list)  # (reach query, buchi query)


# ----------------------------------------------------------------------
# Query sets


def _json_answer(code: int, stdout: str, command: str) -> Optional[dict]:
    try:
        out = json.loads(stdout)
    except ValueError:
        return None
    if not isinstance(out, dict) or out.get("command") != command:
        return None
    if code != (0 if out.get("answer") else 1):
        return None
    return out


def _automaton_queries(w: Workload, family: str, n: int, tag: str, aut: dict,
                       energy: str, work: Path, verify: bool) -> None:
    base = f"{family}-n{n}-{tag}"
    path = work / f"{base}.json"
    path.write_text(json.dumps(aut))
    want_reach = reference.reach(aut, energy)
    want_buchi = reference.buchi(aut, energy)
    flag = ["--verify"] if verify else []

    def check_reach(code, stdout, q):
        out = _json_answer(code, stdout, "reach")
        if out is None:
            return False, f"exit {code}, no answer"
        q.answer = out["answer"]
        got = (out["answer"], out["value"])
        if got != want_reach or out["verified"] != verify:
            return True, f"reach {got}, reference {want_reach}"
        return None

    def check_buchi(code, stdout, q):
        out = _json_answer(code, stdout, "buchi")
        if out is None:
            return False, f"exit {code}, no answer"
        q.answer = out["answer"]
        if out["answer"] != want_buchi or out["verified"] != verify:
            return True, f"buchi {out['answer']}, reference {want_buchi}"
        return None

    reach_q = Query(f"{base}-reach", ["reach", str(path), "--energy", energy, *flag,
                                      "--format", "json"], n, base, None)
    buchi_q = Query(f"{base}-buchi", ["buchi", str(path), "--energy", energy, *flag,
                                      "--format", "json"], n, base, None)
    reach_q.check = lambda code, out, q=reach_q: check_reach(code, out, q)
    buchi_q.check = lambda code, out, q=buchi_q: check_buchi(code, out, q)
    w.queries += [reach_q, buchi_q]
    w.invariants.append((reach_q, buchi_q))


def _automaton_pass(w: Workload, make, sizes: dict, energies: tuple, verify: bool,
                    seed: int, rep: int, work: Path) -> None:
    """``sizes`` maps n to the number of instances; each gets reach and buchi."""
    family = make.__name__
    rng = random.Random(f"{family}:{verify}:{seed}:{rep}")
    for n, count in sizes.items():
        for k in range(count):
            aut = make(n, rng)
            _automaton_queries(w, family, n, f"r{rep}i{k}", aut, rng.choice(energies), work,
                               verify)


# Instances at n=32 carry most of run_s, and largest_size_s is their
# median.  Every pass draws new instances, so that one unusually cheap or
# costly instance moves the figures little.  The counts put query_p50_s
# inside the cluster of n=24 buchi queries (mixed-query: n=24 buchi and
# n=16 reach), not on the step between two clusters, where it would move
# with whichever query lands on the step.
QUERY_SIZES = {8: 2, 16: 2, 24: 3, 32: 2}
QUERY_ENERGIES = ("0", "4", "12")


def ring_query(w: Workload, seed: int, rep: int, work: Path) -> None:
    _automaton_pass(w, gen.ring, QUERY_SIZES, QUERY_ENERGIES, False, seed, rep, work)


def mixed_query(w: Workload, seed: int, rep: int, work: Path) -> None:
    _automaton_pass(w, gen.mixed, QUERY_SIZES, QUERY_ENERGIES, False, seed, rep, work)


def net_negative_ring(n: int, rng: random.Random) -> dict:
    return gen.ring(n, rng, pump=False)


GOLDEN_RUNS = (
    ("reach_pump_0.json", ["reach", "pump.json", "--energy", "0", "--verify"]),
    ("buchi_pump_0.json", ["buchi", "pump.json", "--energy", "0", "--verify"]),
    ("buchi_dec_0.json", ["buchi", "dec.json", "--energy", "0", "--verify"]),
)


def ring_verify(w: Workload, seed: int, rep: int, work: Path) -> None:
    # No pump and one energy: a pump, or an energy too low to leave s0,
    # cuts the oracle's search short on some seeds and not others, which
    # made per-instance cost vary threefold.  The goldens and the probe-cap
    # reproduction cover buchi yes.
    # The counts put query_p50_s inside the cluster of n=7 reach queries.
    _automaton_pass(w, net_negative_ring, {5: 1, 6: 1, 7: 4, 8: 3}, ("12",), True, seed, rep,
                    work)
    golden = ROOT / "tests" / "golden"
    for name, argv in GOLDEN_RUNS:
        want = (golden / name).read_text()
        argv = [argv[0], str(golden / argv[1]), *argv[2:], "--format", "json"]

        def check(code, stdout, want=want):
            if stdout != want:
                return (code != 2), f"exit {code}, output differs from golden"
            return None

        w.queries.append(Query(f"golden-{name[:-5]}-r{rep}", argv, 2, f"golden-{name}-r{rep}",
                               check))
    path = work / "probe-cap.json"
    path.write_text(json.dumps(gen.probe_cap()))

    def check_probe(code, stdout):
        out = _json_answer(code, stdout, "buchi")
        if out is None:
            return False, f"exit {code}, no answer (true answer: buchi yes)"
        if out["answer"] is not True:
            return True, "buchi no, true answer yes"
        return None

    w.queries.append(Query(f"probe-cap-buchi-r{rep}", ["buchi", str(path), "--energy", "0",
                                                       "--verify", "--format", "json"],
                           2, f"probe-cap-r{rep}", check_probe))


WORD_IDENTITIES = ("omega-sum", "omega-product", "conway-star", "group-C2")
WORD_SEEDS = (0, 1)
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def word_omega(w: Workload, seed: int, rep: int, work: Path) -> None:
    """Regex pairs come from wordcheck's own fixed seeds 0 and 1: their cost
    varies fourfold from one wordcheck seed to the next, more than any bound
    could absorb.  The workload seed and the pass rename the two letters."""
    rng = random.Random(f"word:{seed}:{rep}")
    alphabet = "".join(rng.sample(LETTERS, 2))
    for wseed in WORD_SEEDS:
        for bound in (5, 6):
            for ident in WORD_IDENTITIES:
                bounded = ident in ("omega-sum", "omega-product")

                def check(code, stdout, ident=ident, bound=bound, bounded=bounded):
                    try:
                        out = json.loads(stdout)
                    except ValueError:
                        return False, f"exit {code}, no verdict"
                    want = {"command": "wordcheck", "identity": ident, "cases": 1,
                            "bound": bound if bounded else None, "verdict": "Pass",
                            "failures": []}
                    if out != want or code != 0:
                        return True, f"exit {code}, {stdout.strip()}"
                    return None

                argv = ["wordcheck", "--identity", ident, "--cases", "1", "--seed",
                        str(wseed), "--bound", str(bound), "--alphabet", alphabet,
                        "--format", "json"]
                w.queries.append(Query(f"word-s{wseed}-b{bound}-{ident}-r{rep}", argv, bound,
                                       f"word-s{wseed}-b{bound}-r{rep}", check))


# name -> (why, nominal seconds per pass on a 2-core VM, adds one pass's queries)
WORKLOADS = {
    "ring-query": (
        "matrixkleene closures over energyfn compose/join do the work; operands repeat heavily",
        12.0, ring_query),
    "mixed-query": (
        "same queries on mixed-slope functions: about twice the distinct compose operands, "
        "more pieces", 17.5, mixed_query),
    "ring-verify": (
        "the search oracles behind --verify dominate; their cost is exponential in n",
        17.0, ring_verify),
    "word-omega": (
        "wordmodel lasso enumeration does all the work; the energy layers none",
        12.5, word_omega),
}


# ----------------------------------------------------------------------
# Running one CLI process


def execute(argv: list, env: dict, timeout: float, work: Path) -> Outcome:
    """Run one process to completion; time it and read its peak RSS."""
    with open(work / "stdout.txt", "w+") as out, open(work / "stderr.txt", "w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        lock = threading.Lock()
        state = {"done": False, "killed": False}

        def kill():
            with lock:
                if not state["done"]:
                    state["killed"] = True
                    proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        # wait without reaping, so the pid cannot be reused before the timer stops
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            state["done"] = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Outcome(wall, usage.ru_utime + usage.ru_stime, proc.returncode, out.read(),
                       err.read(), usage.ru_maxrss, state["killed"])


def calibrate() -> float:
    """CPU seconds of a fixed loop of the work the CLI does most: Fraction
    arithmetic, dict stores and Python calls.  It runs in this process,
    so nothing in the package under test can change its cost."""
    start = time.process_time()
    x, seen = Fraction(0), {}
    for i in range(CAL_ITERATIONS):
        x += Fraction(i % 7, 3)
        seen[i % 97] = x
    return time.process_time() - start


class Meter:
    """Runs CLI processes one at a time, with a calibration loop between
    each two, and scales each process's CPU time by CAL_REF_S over the
    mean of the loops just before and just after it (``Outcome.ref_s``)."""

    def __init__(self, env: dict, work: Path):
        self.env, self.work = env, work
        self.cal = [calibrate()]

    def run(self, argv: list, timeout: float = QUERY_TIMEOUT_S) -> Outcome:
        res = execute(argv, self.env, timeout, self.work)
        before = self.cal[-1]
        self.cal.append(calibrate())
        res.ref_s = res.cpu * CAL_REF_S / ((before + self.cal[-1]) / 2)
        return res


# ----------------------------------------------------------------------
# Passes


@dataclass
class Record:
    # qid -> seconds in the untraced pass: at reference speed, CPU, wall
    times: dict = field(default_factory=dict)
    cpu: dict = field(default_factory=dict)
    walls: dict = field(default_factory=dict)
    pass_walls: list = field(default_factory=list)  # summed query walls per pass
    traced_walls: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)  # qid -> message
    maxrss_kib: int = 0
    layers: list = field(default_factory=list)  # per traced pass: read_traces() result


def run_pass(w: Workload, meter: Meter, rec: Record, deadline: float,
             spans_dir: Optional[Path]) -> None:
    pass_wall = 0.0
    traces = []
    for q in w.queries:
        remaining = deadline - time.perf_counter()
        if spans_dir is None:
            argv = [sys.executable, "-c", CLI, *q.argv]
        else:
            spans = spans_dir / f"{q.qid}.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), q.qid, "--", *q.argv]
            traces.append(spans)
        rec.attempted += 1
        if remaining <= 1:
            rec.failed += 1
            rec.failures[q.qid] = "not started: run deadline reached"
            continue
        res = meter.run(argv, min(QUERY_TIMEOUT_S, remaining))
        pass_wall += res.wall
        rec.maxrss_kib = max(rec.maxrss_kib, res.maxrss_kib)
        problem = (False, f"timed out after {res.wall:.1f} s") if res.timed_out \
            else q.check(res.code, res.stdout)
        if problem is not None:
            rec.failed += 1
            wrong, msg = problem
            last = res.stderr.strip().splitlines()[-1:] or [""]
            rec.failures[q.qid] = f"{msg} {last[0]}".strip()
            if wrong and f"{q.qid}: {msg}" not in rec.wrong:
                rec.wrong.append(f"{q.qid}: {msg}")
        if spans_dir is None:
            rec.times[q.qid] = res.ref_s
            rec.cpu[q.qid] = res.cpu
            rec.walls[q.qid] = res.wall
    if spans_dir is None:
        rec.pass_walls.append(pass_wall)
    else:
        rec.traced_walls.append(pass_wall)
        rec.layers.append(read_traces(traces))
    for reach_q, buchi_q in w.invariants:
        msg = f"{buchi_q.qid}: buchi yes but reach no at the same energy"
        if buchi_q.answer and reach_q.answer is False and msg not in rec.wrong:
            rec.wrong.append(msg)


def read_traces(paths: list) -> tuple:
    """Per span name, for one pass: self time, time not nested in a span of
    the same name (recursion counted once), calls; and summed counters."""
    self_s: dict = {}
    total_s: dict = {}
    calls: dict = {}
    counters: dict = {}
    for path in paths:
        if not path.exists():
            continue
        data = json.loads(path.read_text())
        flat = array("q", (path.parent / f"{path.name}.bin").read_bytes())
        names = data["names"]
        spans = [flat[i:i + 4] for i in range(0, len(flat), 4)]
        own = [end - start for _, _, start, end in spans]
        for _, parent, start, end in spans:
            if parent >= 0:
                own[parent] -= end - start
        for (idx, parent, start, end), ns in zip(spans, own):
            name = names[idx]
            self_s[name] = self_s.get(name, 0.0) + ns / 1e9
            calls[name] = calls.get(name, 0) + 1
            while parent >= 0 and spans[parent][0] != idx:
                parent = spans[parent][1]
            if parent < 0:
                total_s[name] = total_s.get(name, 0.0) + (end - start) / 1e9
        c = data["counters"]
        errors = c.pop("errors")
        for key, value in list(c.items()) + [(f"error.{k}", v) for k, v in errors.items()]:
            if key == "compose_pieces_max":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    return self_s, total_s, calls, counters


# ----------------------------------------------------------------------
# Metrics


def tail(values: list) -> tuple:
    """(value, percentile) at the highest percentile with TAIL_BEYOND samples above."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0
    i = len(ordered) - TAIL_BEYOND - 1
    return ordered[i], 100.0 * (i + 1) / len(ordered)


def end_to_end(w: Workload, rec: Record, setup: list) -> tuple:
    # a query the run deadline kept from ever starting has no time
    per_query = rec.times
    largest = max(q.size for q in w.queries if not q.instance.startswith(("golden", "probe")))
    per_instance: dict = {}
    for q in w.queries:
        if q.size == largest and q.qid in per_query:
            per_instance[q.instance] = per_instance.get(q.instance, 0.0) + per_query[q.qid]
    tail_s, pct = tail(list(per_query.values()))
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} eval calls"),
        "run_s": (sum(per_query.values()) / w.passes, "s",
                  f"per pass: {len(per_query)} queries over {w.passes} passes; "
                  f"CPU {sum(rec.cpu.values()) / w.passes:.3f} s, "
                  f"wall {sum(rec.walls.values()) / w.passes:.3f} s"),
        "query_p50_s": (statistics.median(per_query.values()), "s",
                        f"median of {len(per_query)} queries"),
        "query_tail_s": (tail_s, "s", f"p{pct:.1f} of {len(per_query)} queries, "
                                      f"{min(TAIL_BEYOND, len(per_query) - 1)} beyond"),
        "largest_size_s": (statistics.median(per_instance.values()), "s",
                           f"median of {len(per_instance)} instances at size {largest}"),
        "peak_rss_mb": (rec.maxrss_kib / 1024, "MiB",
                        f"max over {rec.attempted} processes"),
    }
    sizes: dict = {}
    for q in w.queries:
        if not q.instance.startswith(("golden", "probe")) and q.qid in per_query:
            sizes.setdefault(q.size, {}).setdefault(q.instance, 0.0)
            sizes[q.size][q.instance] += per_query[q.qid]
    by_size = {n: statistics.median(v.values()) for n, v in sorted(sizes.items())}
    return metrics, by_size


def _frac(num, den) -> float:
    return num / den if den else 0.0


def per_layer(rec: Record) -> tuple:
    """Per-layer metrics per pass of the query set (spans averaged over traced passes)."""
    k = len(rec.layers)
    metrics = {}
    for module, funcs in LAYERS.items():
        for fn in funcs:
            name = f"{module}.{fn}"
            metrics[f"{name}.calls"] = (sum(l[2].get(name, 0) for l in rec.layers) / k, "count")
            metrics[f"{name}.self_s"] = (sum(l[0].get(name, 0.0) for l in rec.layers) / k, "s")
            metrics[f"{name}.total_s"] = (sum(l[1].get(name, 0.0) for l in rec.layers) / k, "s")
    c = rec.layers[0][3]
    metrics.update({
        "matrixkleene.mat_star.top0_frac": (_frac(c["star_top0"], c["star_entries"]), "frac"),
        "energyfn.compose.distinct_frac": (_frac(c["compose_distinct"], c["compose_calls"]), "frac"),
        "energyfn.join.distinct_frac": (_frac(c["join_distinct"], c["join_calls"]), "frac"),
        "energyfn.compose.bottom_frac": (_frac(c["compose_bottom"], c["compose_calls"]), "frac"),
        "energyfn.compose.pieces_max": (c["compose_pieces_max"], "count"),
        "energyfn.compose.pieces_mean": (_frac(c["compose_pieces_sum"], c["compose_calls"]), "count"),
        "wordmodel._dfa.hit_frac": (_frac(c["dfa_hits"], c["dfa_hits"] + c["dfa_misses"]), "frac"),
        "wordmodel._buchi_for_pair.hit_frac": (
            _frac(c["buchi_pair_hits"], c["buchi_pair_hits"] + c["buchi_pair_misses"]), "frac"),
        "energyauto.verification_failed": (c["error.VerificationFailed"], "count"),
        "energyauto.budget_exceeded": (c["error.BudgetExceeded"], "count"),
        "failed_frac": (_frac(rec.failed, rec.attempted), "frac"),
        "trace.overhead_frac": (
            statistics.median(rec.traced_walls) / statistics.median(rec.pass_walls) - 1, "frac"),
    })
    return metrics, c


def layer_checks(metrics: dict, run_s: float) -> list:
    """Does the workload stress the layer it was chosen for?"""
    def self_of(prefixes):
        return sum(v for m, (v, _) in metrics.items()
                   if m.endswith(".self_s") and m.startswith(prefixes))

    oracle = self_of(("energyauto.oracle_",))
    oracle_total = sum(metrics[f"energyauto.oracle_{q}.total_s"][0] for q in ("reach", "buchi"))
    algebra = self_of(("matrixkleene.", "energyfn."))
    lines = [f"oracle_* self time {oracle:.3f} s = {_frac(oracle, run_s):.1%} of traced run_s",
             f"oracle_* total time {oracle_total:.3f} s = {_frac(oracle_total, run_s):.1%} "
             f"of traced run_s",
             f"matrixkleene+energyfn self time {algebra:.3f} s = {_frac(algebra, run_s):.1%} "
             f"of traced run_s"]
    energy_calls = sum(v for m, (v, _) in metrics.items()
                       if m.startswith("energyfn.") and m.endswith(".calls"))
    lines.append(f"energyfn calls per pass: {energy_calls:.0f}")
    return lines


# ----------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "energyomega" / "cli.py").is_file() or \
            not (ROOT / "tests" / "golden").is_dir():
        print(f"error: {ROOT} is not an energyomega checkout (no src/energyomega "
              f"or tests/golden)", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_DEADLINE_S
    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(args.seed))

    probe = execute([sys.executable, "-c", "import energyomega; print(energyomega.__file__)"],
                    env, QUERY_TIMEOUT_S, work)
    if probe.code != 0 or not Path(probe.stdout.strip()).is_relative_to(ROOT / "src"):
        print(f"error: energyomega does not import from {ROOT / 'src'}: {probe.stderr}",
              file=sys.stderr)
        return 2

    why, pass_s, add_pass = WORKLOADS[args.workload]
    w = Workload(why, 1 if args.trace else max(1, round(args.seconds / pass_s)))
    for rep in range(w.passes):
        add_pass(w, args.seed, rep, work)
    random.Random(args.seed).shuffle(w.queries)

    # The calibration loop and the CLI processes share one CPU, so the
    # loop runs at the speed the queries get.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    meter = Meter(env, work)
    plus2 = ROOT / "tests" / "golden" / "plus2.json"
    eval_argv = [sys.executable, "-c", CLI, "eval", str(plus2), "--energy", "0"]
    meter.run(eval_argv)  # warm-up: writes the bytecode cache
    setup = [meter.run(eval_argv).ref_s for _ in range(SETUP_REPEATS)]

    rec = Record()
    spans_dir = work / "spans"
    spans_dir.mkdir()
    run_pass(w, meter, rec, deadline, None)
    if args.trace:
        run_pass(w, meter, rec, deadline, spans_dir)

    name = args.workload
    print(f"workload {name}: {w.why}")
    print(f"  closed loop, 1 client, {len(w.queries)} queries in {w.passes} passes, "
          f"seed {args.seed}")
    cal = statistics.quantiles(meter.cal, n=4)
    print(f"  calibration loop: quartiles {cal[0] * 1e3:.1f} / {cal[1] * 1e3:.1f} / "
          f"{cal[2] * 1e3:.1f} ms CPU over {len(meter.cal)} runs; reference speed is "
          f"{CAL_REF_S * 1e3:.1f} ms")
    if args.trace:
        metrics, counters = per_layer(rec)
        run_s = statistics.median(rec.traced_walls)
        for line in layer_checks(metrics, run_s):
            print(f"  {line}")
        for key, (value, unit) in sorted(metrics.items()):
            print(f"  {key:<44} {value:>14.6f} {unit:<5} moves: {moves(key)}")
        if name.endswith("-query") and counters["star_entries"] and \
                counters["star_top0"] == counters["star_entries"]:
            rec.wrong.append("degenerate family: every entry of M* is top from 0")
    else:
        full, by_size = end_to_end(w, rec, setup)
        metrics = {k: (v, unit) for k, (v, unit, _) in full.items()}
        for k, (v, unit, note) in full.items():
            print(f"  {k:<16} {v:>12.6f} {unit:<4} ({note})")
        for n, v in by_size.items():
            print(f"  size {n:<3} median instance time {v:.4f} s")
    print(f"  failed {rec.failed} of {rec.attempted} queries "
          f"(failed_frac {_frac(rec.failed, rec.attempted):.4f})")
    for qid, msg in sorted(rec.failures.items()):
        print(f"  failed: {qid}: {msg}")
    for msg in rec.wrong:
        print(f"  WRONG: {msg}")
    print(json.dumps({
        "correct": not rec.wrong,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
