"""hyper4 benchmark: drive ``hyper4.cli.main`` in-process on one workload.

    python3 perfbench/run.py --workload screen --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the program measured is the one under
``./src``.  With ``--trace 0`` the run reports the end-to-end metrics,
with ``--trace 1`` a traced replay reports the per-layer metrics and the
tracing overhead.  Every op's output is checked against the committed
reference answers.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import oracle  # noqa: E402
import program  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORKDIR = os.path.join(os.getcwd(), ".perfbench")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
CHUNK_S = 0.5  # op time between two machine-speed probes
PROBE_LOOPS = 3  # calibration loops per probe
PERCENTILES = (10, 50, 90)
WORKLOAD_NAMES = ["screen", "census", "cyclic-fill", "cyclic-cover"]
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p10_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}


def nearest_rank(values: list[float], pct: int) -> float:
    """The smallest value with at least pct percent of values at or below it."""
    ordered = sorted(values)
    return ordered[max(math.ceil(pct / 100 * len(ordered)), 1) - 1]


def measure_setup() -> list[float]:
    """Import and first-use set-up times of SETUP_PROBES fresh interpreters,
    scaled by the median of machine-speed probes taken between them."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    speed = probe_speed()
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, probe],
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=False,
        )
        if done.returncode != 0:
            raise program.ProgramMissing(f"set-up probe failed: {done.stderr.strip()[-500:]}")
        speed += probe_speed()
        times.append(float(done.stdout.split()[-1]))
    scale = calibration.NOMINAL_S / statistics.median(speed)
    return [t * scale for t in times]


def probe_speed() -> list[float]:
    return [calibration.probe() for _ in range(PROBE_LOOPS)]


def warm_up(cli) -> None:
    """Let lazy set-up finish before timing: one untimed manifold verify."""
    rc, _, crash = program.call(cli, ["verify", workloads.CYCLIC_CODE])
    if rc != 0 or crash is not None:
        raise program.ProgramMissing(f"warm-up verify failed: rc={rc} crash={crash}")


@dataclasses.dataclass(frozen=True)
class Outcome:
    """Time, output and verdict of one op."""

    op: workloads.Op
    seconds: float
    stdout: str
    failure: str | None
    cpu: float
    scale: float = 1.0  # to the nominal machine speed, see calibration.py

    @property
    def scaled(self) -> float:
        return self.seconds * self.scale


def run_op(cli, op: workloads.Op) -> Outcome:
    cpu0 = _cpu()
    start = time.perf_counter()
    rc, stdout, crash = program.call(cli, list(op.argv))
    seconds = time.perf_counter() - start
    cpu = _cpu() - cpu0
    failure = f"uncaught {crash}" if crash else op.check(rc, program.envelope(stdout))
    return Outcome(op, seconds, stdout, failure, cpu)


def _cpu() -> float:
    """CPU seconds of this process and its reaped children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def run_round(cli, ops: list[workloads.Op]) -> list[Outcome]:
    """Run the ops with a machine-speed probe before them, after every
    CHUNK_S of op time and after the last op; every op of the round is
    scaled by the median probe."""
    speed = probe_speed()
    outcomes = []
    busy = 0.0
    for op in ops:
        outcomes.append(run_op(cli, op))
        busy += outcomes[-1].seconds
        if busy >= CHUNK_S:
            speed += probe_speed()
            busy = 0.0
    if busy:
        speed += probe_speed()
    scale = calibration.NOMINAL_S / statistics.median(speed)
    return [dataclasses.replace(o, scale=scale) for o in outcomes]


def timed_rounds(cli, workload, seed: int, seconds: float) -> list[list[Outcome]]:
    """Whole rounds, closed loop: at least the workload's minimum, then more
    while the next round is expected to fit in ``seconds``."""
    rounds: list[list[Outcome]] = []
    start = time.perf_counter()
    for ops in workload.rounds(workloads_rng(workload, seed)):
        began = time.perf_counter()
        rounds.append(run_round(cli, ops))
        now = time.perf_counter()
        if len(rounds) >= workload.min_rounds and now - start + (now - began) > seconds:
            break
    return rounds


def workloads_rng(workload, seed: int) -> random.Random:
    return random.Random(f"{workload.name}:{seed}")


def tally(outcomes: list[Outcome]) -> tuple[int, int, list[str]]:
    attempted = sum(o.op.items for o in outcomes)
    failed = [o for o in outcomes if o.failure]
    lines = [f"FAILED {' '.join(o.op.argv)}: {o.failure}" for o in failed]
    return attempted, sum(o.op.items for o in failed), lines


def end_to_end(cli, workload, args) -> dict:
    setup = measure_setup()
    warm_up(cli)
    rounds = timed_rounds(cli, workload, args.seed, args.seconds)
    outcomes = [o for r in rounds for o in r]
    attempted, failed, failures = tally(outcomes)
    # Rounds have the same composition: each metric is taken per round on
    # the scaled op times, then the median over rounds.
    rates = [sum(o.op.items for o in r if not o.failure) / sum(o.scaled for o in r) for r in rounds]
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": statistics.median(rates),
        **{
            f"latency_p{p}_s": statistics.median(
                nearest_rank([o.scaled for o in r], p) for r in rounds
            )
            for p in PERCENTILES
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(
        f"workload {workload.name}: {workload.summary}; seed {args.seed}; closed loop, "
        f"1 client; {len(rounds)} rounds, {len(outcomes)} ops, {attempted} items"
    )
    raw_scale = statistics.median(o.scale for o in outcomes)
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "ops_per_s": f"median of {len(rounds)} rounds, correct items / busy s",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    for p in PERCENTILES:
        notes[f"latency_p{p}_s"] = f"median of {len(rounds)} rounds of {len(rounds[0])} ops, nearest rank"
    print(f"  times scaled to nominal machine speed; median scale factor {raw_scale:.4f}")
    for name, value in values.items():
        print(f"  {name:<16} {value:>14.6f} {END_TO_END_UNITS[name]:<4} {notes[name]}")
    print(f"  failed_ratio     {failed}/{attempted}")
    for line in failures[:20]:
        print(f"  {line}")
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def per_layer(cli, workload, args) -> dict:
    cell_s, reference_s = traced_setup()
    warm_up(cli)
    ops = next(workload.rounds(workloads_rng(workload, args.seed)))

    # Each op runs traced and untraced back to back, in alternating order,
    # so drift in machine speed falls on both sides of the overhead ratio.
    tracer = tracing.Tracer()
    traced, plain = [], []
    for index, op in enumerate(ops):
        if index % 2:
            plain.append(run_op(cli, op))
        tracer.op = index
        tracer.op_root = None
        tracer.install()
        try:
            traced.append(run_op(cli, op))
        finally:
            tracer.uninstall()
        if not index % 2:
            plain.append(run_op(cli, op))

    mismatches = [o.op for o, p in zip(traced, plain) if o.stdout != p.stdout]
    attempted, failed, failures = tally(traced + plain)
    items = sum(op.items for op in ops)
    traced_rate = items / sum(o.seconds for o in traced)
    plain_rate = items / sum(o.seconds for o in plain)
    census = [o for o in plain if o.op.kind == "census"]
    manifolds = oracle.load_json(oracle.MANIFOLDS_FILE)
    cusps_of = {code: len(fields["cusp_types"]) for code, fields in manifolds.items()}

    values = tracing.layer_metrics(tracer.spans, ops, cusps_of)
    values["cli.census.cpu_per_wall"] = (
        sum(o.cpu for o in census) / sum(o.seconds for o in census) if census else 0.0,
        "ratio",
    )
    values["cell24.the_24_cell.setup_s"] = (cell_s, "s")
    values["flatgroups.reference_flat_groups.setup_s"] = (reference_s, "s")
    values["trace.ops"] = (len(ops), "count")
    values["trace.ops_per_s_traced"] = (traced_rate, "1/s")
    values["trace.ops_per_s_untraced"] = (plain_rate, "1/s")
    values["trace.overhead"] = (plain_rate / traced_rate, "ratio")
    values["trace.output_mismatches"] = (len(mismatches), "count")

    spans_path = os.path.join(WORKDIR, f"trace-{workload.name}-seed{args.seed}.jsonl")
    tracer.write(spans_path)
    print(
        f"workload {workload.name}: traced replay of the first round, {len(ops)} ops; "
        f"{len(tracer.spans)} spans written to {spans_path}"
    )
    if tracer.missing:
        print(f"  not traced (absent from the program): {', '.join(tracer.missing)}")
    for name in sorted(values):
        value, unit = values[name]
        note = ""
        if name in tracing.COUNTS_READ_FROM_CODE:
            expected, where = tracing.COUNTS_READ_FROM_CODE[name]
            if workload.name in where and value != expected:
                note = f"  (read from the code: {expected})"
        print(f"  {name:<52} {value:>14.6f} {unit}{note}")
    print(f"  tracing overhead: {plain_rate:.4f} untraced / {traced_rate:.4f} traced ops/s")
    for op in mismatches[:20]:
        print(f"  OUTPUT DIFFERS traced vs untraced: {' '.join(op.argv)}")
    for line in failures[:20]:
        print(f"  {line}")
    failed += sum(op.items for op in mismatches)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def traced_setup() -> tuple[float, float]:
    """First-use times of the 24-cell and the reference flat groups."""
    from hyper4.cell24 import the_24_cell
    from hyper4.flatgroups import reference_flat_groups

    start = time.perf_counter()
    the_24_cell()
    middle = time.perf_counter()
    reference_flat_groups()
    return middle - start, time.perf_counter() - middle


def check_declared(result: dict, trace: bool) -> None:
    """The metrics emitted must be exactly those BENCHMARK.json declares."""
    path = os.path.join(os.getcwd(), "BENCHMARK.json")
    if not os.path.isfile(path):
        return
    declared = oracle.load_json(path)["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if want != got:
        raise SystemExit(f"emitted metrics differ from BENCHMARK.json: {sorted(set(want) ^ set(got))}")


def run_all(args) -> int:
    """Each workload in its own interpreter, then one table of all metrics."""
    rows = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        rows[name] = json.loads(done.stdout.strip().splitlines()[-1])
    names = list(next(iter(rows.values()))["metrics"])
    print(f"{'metric':<52} {'unit':<6}" + "".join(f"{w:>14}" for w in rows))
    for metric in names:
        unit = rows[WORKLOAD_NAMES[0]]["metrics"][metric]["unit"]
        cells = "".join(f"{r['metrics'][metric]['value']:>14.6g}" for r in rows.values())
        print(f"{metric:<52} {unit:<6}{cells}")
    print(f"{'failed_ratio':<52} {'':<6}" + "".join(f"{str(r['failed']) + '/' + str(r['attempted']):>14}" for r in rows.values()))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    try:
        cli = program.import_cli()
        os.makedirs(WORKDIR, exist_ok=True)
        with tempfile.TemporaryDirectory(prefix="inputs-", dir=WORKDIR) as inputs:
            workload = workloads.build(inputs)[args.workload]
            result = per_layer(cli, workload, args) if args.trace else end_to_end(cli, workload, args)
    except program.ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    check_declared(result, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
