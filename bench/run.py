"""Benchmark of the dhsim command line: one workload per run, in-process.

    python3 bench/run.py --workload diag-sweep --seed 1 --seconds 20 --trace 0

Builds the workload's seeded circuit files under bench/work/, runs a fixed
number of rounds of its operations through `dhsim.cli.main`, checks every
report against an independent statevector reference and the paper's
properties, and prints one JSON object as the last line of stdout: the
end-to-end metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
See bench/README.md for the workloads, the metrics and the reference figures.
"""

import os

# numpy reads these when it is first imported. One BLAS thread keeps the
# oracle's dense matrix products steady: with OpenBLAS's default a 1024^2
# complex product swings between 80 and 150 ms on two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 5


def call_cli(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_op(cli, op) -> list[tuple[int, str, str]]:
    return [call_cli(cli, step.argv) for step in op.steps]


def round_digest(results_per_op) -> str:
    h = hashlib.sha256()
    for results in results_per_op:
        for _, out, _ in results:
            h.update(out.encode("utf-8"))
    return h.hexdigest()


def import_dhsim():
    """Import dhsim from this checkout's src/, or exit if it is not there."""
    if not (SRC / "dhsim" / "__init__.py").is_file():
        print(f"error: no dhsim sources at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    return importlib.import_module("dhsim.cli")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="diag-sweep, verify-wide or paper-protocols")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="nominal length of the timed part; sets the number of rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.perf_counter()
    cli = import_dhsim()
    import_s = time.perf_counter() - start
    import workloads   # after dhsim, so numpy's import counts as dhsim's
    import spans

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    work = BENCH / "work" / f"{args.workload}-seed{args.seed}"
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ops = workloads.build(args.workload, args.seed, work)
        run_op(cli, ops[0])
        setups.append(time.perf_counter() - start)

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    rounds = workloads.WORKLOADS[args.workload].rounds(args.seconds)
    latencies, failures, first_round = [], [], []
    reports = 0
    for r in range(rounds):
        for k, op in enumerate(ops):
            t0 = time.perf_counter()
            results = tracer.op(run_op, cli, op) if tracer else run_op(cli, op)
            latencies.append(time.perf_counter() - t0)
            reports += len(results)
            problem = op.problem(results)
            if r == 0:
                first_round.append(results)
            elif problem is None and results != first_round[k]:
                problem = "report differs from the same operation's first-round report"
            if problem:
                failures.append(problem)
                print(f"FAILED op {k} round {r}: {problem}", file=sys.stderr)
    if tracer:
        tracer.uninstall()

    digest = round_digest(first_round)
    reference = json.loads(DIGESTS.read_text()).get(args.workload, {}).get(str(args.seed))
    verdict = ("matches the reference" if digest == reference
               else "no reference for this seed" if reference is None
               else f"MISMATCH, reference {reference}")
    print(f"digest {args.workload} seed {args.seed}: {digest} ({verdict})")

    correct = not failures
    if tracer:
        ops_run = len(latencies)
        metrics = tracer.metrics(ops_run)
        summed = sum(tracer.self_times().values())
        if abs(summed - tracer.op_total()) > 1e-6 * tracer.op_total():
            print(f"self times sum to {summed}, operations to {tracer.op_total()}",
                  file=sys.stderr)
            correct = False
        tracer.write(work / "spans.tsv")
    else:
        metrics = {
            "setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
            "reports_per_s": {"value": reports / sum(latencies), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": len(latencies),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
