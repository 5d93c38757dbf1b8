"""ciqn benchmark: one workload per invocation.

    python3 bench/run.py --workload sweep-linear --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; ciqn is imported from ``src/``.
With ``--trace 0`` the run times repetitions of the workload with only
light hooks installed and reports the end-to-end metrics.  With
``--trace 1`` it also runs repetitions under the span tracer and reports
the per-layer metrics.  Human-readable lines come first; the last line
of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

One attempted operation is one time step.  See ``bench/README.md`` for
what each workload and metric means.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
SETUP_SAMPLES = 5


@dataclass
class Rep:
    wall: float
    log: object
    failed: int
    attempted: int
    tracer: object = None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_ciqn():
    """Import ciqn from this checkout's ``src/``, never from elsewhere.

    BLAS threads are pinned to 1 first (numpy reads this on import, and
    the set-up probes inherit it), so rank threads plus BLAS threads
    never exceed the cores.
    """
    if not (SRC / "ciqn" / "__init__.py").is_file():
        raise SystemExit("error: no ciqn sources under %s" % SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import ciqn
    if Path(ciqn.__file__).resolve().parent != SRC / "ciqn":
        raise SystemExit("error: imported ciqn from %s" % ciqn.__file__)
    return ciqn


def host_record(ciqn) -> dict:
    import numpy
    import scipy
    digest = hashlib.sha256()
    for path in sorted((SRC / "ciqn").glob("*.py")):
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "source_sha256": digest.hexdigest()[:16],
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "ciqn": ciqn.__version__}


def measure_setup(workload: str, seed: int) -> list:
    """Set-up seconds from fresh interpreters (imports happen once each)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + proc.stderr)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_rep(observer, action, expected_steps, tracer=None) -> Rep:
    """One repetition with the observer (and tracer, if any) installed.

    ``action`` returns the steps that failed a workload-level check.
    """
    from instrument import Patches
    log = observer.new_rep()
    failed = 0
    with Patches() as patches:
        if tracer is not None:
            tracer.install(patches)
        observer.install(patches)
        start = perf_counter()
        try:
            failed = action()
        except Exception:
            # an exception is a failed step, not a crashed benchmark
            traceback.print_exc(file=sys.stderr)
        wall = perf_counter() - start
    observer.check()
    unreached = max(0, expected_steps - log.steps)
    return Rep(wall, log, failed + log.failed_steps + unreached,
               expected_steps, tracer)


def run_for(seconds, workload, observer, reps_per_round=1, ranks=None,
            traced=False) -> list:
    """Repeat in rounds of ``reps_per_round`` repetitions while the next
    round is expected to end in time; at least one round."""
    from instrument import Tracer
    reps = []
    rounds = []
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for _ in range(reps_per_round):
            n = len(reps)
            tracer = Tracer(run=n) if traced else None
            reps.append(run_rep(observer, lambda: workload.run(n, ranks),
                                workload.expected_steps, tracer))
        rounds.append(perf_counter() - round_start)
        if perf_counter() - start + statistics.median(rounds) > seconds:
            return reps


def percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ms_per_iter(rep) -> float:
    return 1e3 * rep.wall / max(1, rep.log.iterations)


def end_to_end(reps, setup_samples) -> tuple[dict, list]:
    steps_ms = [1e3 * s for rep in reps for s in rep.log.step_s]
    if len(steps_ms) < 2:
        raise SystemExit("error: too few time steps completed to time")
    # counts over distinct inputs, so they do not depend on how many
    # repetitions fit in the run (repeats are checked to be identical)
    distinct = {s.key: s for rep in reps for s in rep.log.solves}
    iterations = sum(sum(s.iterations) for s in distinct.values())
    steps = sum(len(s.iterations) for s in distinct.values())
    collectives = sum(sum(s.collectives[0]) for s in distinct.values())
    metrics = {
        "wall_s": (statistics.median(r.wall for r in reps), "s"),
        "ms_per_iter": (statistics.median(ms_per_iter(r) for r in reps),
                        "ms"),
        "step_ms.p50": (statistics.median(steps_ms), "ms"),
        "step_ms.p90": (percentile(steps_ms, 90), "ms"),
        "iters_per_step": (iterations / max(1, steps), "count"),
        "collectives_per_iter": (collectives / max(1, iterations), "count"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    notes = ["repetitions %d, step samples %d (rank 0), set-up samples %s s"
             % (len(reps), len(steps_ms),
                ", ".join("%.3f" % s for s in setup_samples))]
    return metrics, notes


def per_layer(untraced, traced, serial) -> tuple[dict, list]:
    """Per-layer metrics from the traced repetitions (medians over them)."""
    rows = []
    for rep in traced:
        tracer, log = rep.tracer, rep.log
        iterations = max(1, log.iterations)
        own = tracer.self_times()
        qr = tracer.qr
        collective_s = own["collectives"]
        counts = log.collectives()
        cells = tracer.durations("run_cell")
        rows.append({
            "qr.decompose_s": (own.get("decompose", 0.0), "s"),
            "qr.apply_qt_s": (own.get("apply_qt", 0.0), "s"),
            "qr.back_substitute_s": (own.get("back_substitute", 0.0), "s"),
            "qr.decompose_calls": (qr.decompose_calls, "count"),
            "qr.restarts_per_iter": (qr.restarts / iterations, "count"),
            "qr.columns_offered": (qr.columns_offered, "count"),
            "qr.columns_kept": (qr.columns_kept, "count"),
            "qr.keep_ratio": (qr.columns_kept / max(1, qr.columns_offered),
                              "ratio"),
            "qr.fallbacks_empty": (qr.fallbacks_empty, "count"),
            "qr.fallbacks_singular": (qr.fallbacks_singular, "count"),
            "qr.flops_computed": (qr.flops, "flop"),
            "qr.bytes_computed": (qr.bytes, "B"),
            "qr.ops_per_byte_computed": (qr.flops / max(1.0, qr.bytes),
                                         "flop/B"),
            "runtime.allreduce_per_iter": (counts["allreduce"] / iterations,
                                           "count"),
            "runtime.broadcast_per_iter": (counts["broadcast"] / iterations,
                                           "count"),
            "runtime.allgather_per_iter": (counts["allgather"] / iterations,
                                           "count"),
            "runtime.collective_s": (collective_s, "s"),
            "runtime.collective_share": (collective_s / rep.wall, "ratio"),
            "coupler.propose_s": (sum(tracer.durations("propose")), "s"),
            "coupler.update_self_s": (own.get("propose", 0.0), "s"),
            "coupler.step_self_s": (own.get("run_time_step", 0.0), "s"),
            "problems.evaluate_s": (own.get("evaluate", 0.0), "s"),
            "problems.evaluate_calls": (len(tracer.durations("evaluate")),
                                        "count"),
            "field.gather_s": (own.get("gather", 0.0), "s"),
            "harness.cell_s.p50": (statistics.median(cells) if cells
                                   else 0.0, "s"),
            "harness.cell_s.max": (max(cells, default=0.0), "s"),
            "harness.problem_build_s": (
                sum(tracer.durations("make_problem")), "s"),
            "cli.main_s": (sum(tracer.durations("cli.main")), "s"),
        })
    metrics = {name: (statistics.median(row[name][0] for row in rows),
                      rows[0][name][1]) for name in rows[0]}
    untraced_wall = statistics.median(r.wall for r in untraced)
    traced_wall = statistics.median(r.wall for r in traced)
    # 1 by definition when the workload itself runs on one rank
    slowdown = 1.0
    if serial:
        slowdown = statistics.median(ms_per_iter(r) for r in untraced) \
            / statistics.median(ms_per_iter(r) for r in serial)
    metrics["runtime.two_rank_slowdown"] = (slowdown, "ratio")
    metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")

    own = traced[len(traced) // 2].tracer.self_times()
    wall = traced[len(traced) // 2].wall
    notes = ["repetitions: %d untraced, %d traced, %d serial baseline"
             % (len(untraced), len(traced), len(serial)),
             "traced wall %.4f s, untraced wall %.4f s" % (traced_wall,
                                                           untraced_wall),
             "self time on rank 0 (one traced repetition):"]
    for name, seconds in sorted(own.items(), key=lambda kv: -kv[1]):
        notes.append("  %-16s %9.4f s  %5.1f%%" % (name, seconds,
                                                    100.0 * seconds / wall))
    return metrics, notes


def write_trace(path: Path, header: dict, traced) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps({
            "type": "header", **header,
            "span": ["span", "id", "name", "start", "end", "parent", "rank",
                     "run"],
            "collectives": ["collectives", "span", "rank", "run",
                            "{kind: [count, seconds]}"]}) + "\n")
        for rep in traced:
            for record in rep.tracer.records():
                fh.write(json.dumps(record) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    ciqn = import_ciqn()
    from instrument import Observer
    from workloads import make_workload
    with open(ROOT / "BENCHMARK.json") as fh:
        why = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    if args.workload not in why:
        raise SystemExit("error: unknown workload %r (choose from %s)"
                         % (args.workload, ", ".join(why)))
    seed = args.seed % 2 ** 32
    host = host_record(ciqn)

    with tempfile.TemporaryDirectory(prefix="tmp-", dir=BENCH) as workdir:
        workload = make_workload(args.workload, seed, workdir)
        setup_samples = [] if args.trace else measure_setup(args.workload,
                                                            seed)
        workload.setup()
        observer = Observer()
        warmup = run_rep(observer, workload.warm_up, workload.warm_up_steps)
        if args.trace:
            # on more than one rank, a third phase runs the same problem
            # on one rank as the serial baseline
            phases = 3 if workload.ranks > 1 else 2
            share = args.seconds / phases
            untraced = run_for(share, workload, observer)
            traced = run_for(share, workload, observer, traced=True)
            serial = []
            if workload.ranks > 1:
                serial = run_for(share, workload, observer, ranks=1)
            reps = untraced + traced + serial
            metrics, notes = per_layer(untraced, traced, serial)
        else:
            reps = run_for(args.seconds, workload, observer,
                           reps_per_round=workload.reps_per_round)
            metrics, notes = end_to_end(reps, setup_samples)

    attempted = warmup.attempted + sum(r.attempted for r in reps)
    failed = warmup.failed + sum(r.failed for r in reps)
    header = {"workload": args.workload, "seed": args.seed,
              "why": why[args.workload], "seeded": workload.seeded, **host}
    print("workload %s seed %d%s: %s" % (
        args.workload, args.seed,
        "" if workload.seeded else " (unused: the piston has no seed)",
        why[args.workload]))
    print("host " + json.dumps(host))
    if args.trace:
        path = RESULTS / ("trace-%s-seed%d.jsonl" % (args.workload,
                                                     args.seed))
        write_trace(path, header, traced)
        notes.append("spans written to %s" % path.relative_to(ROOT))
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print("%-28s %14.6g %s" % (name, value, unit))
    print("%-28s %14.6g %s" % ("fail_ratio", failed / attempted, "ratio"))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
