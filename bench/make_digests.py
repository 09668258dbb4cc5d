"""Regenerate bench/digests.json, the reference digests run.py compares against.

    python3 bench/make_digests.py

For every workload and each seed in SEEDS, runs one round of operations,
checks every report as run.py does, and records the sha256 of the round's
reports. Run it only when a change is meant to alter the reports.
"""

import json
import sys
from pathlib import Path

import run

SEEDS = range(32)


def main() -> int:
    cli = run.import_dhsim()
    import workloads

    digests = {}
    for name in workloads.WORKLOADS:
        digests[name] = {}
        for seed in SEEDS:
            ops = workloads.build(name, seed, run.BENCH / "work" / f"digests-{name}")
            results = [run.run_op(cli, op) for op in ops]
            for op, res in zip(ops, results):
                problem = op.problem(res)
                if problem:
                    print(f"{name} seed {seed}: {problem}", file=sys.stderr)
                    return 1
            digests[name][str(seed)] = run.round_digest(results)
        print(f"{name}: {len(SEEDS)} seeds")
    Path(run.DIGESTS).write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
