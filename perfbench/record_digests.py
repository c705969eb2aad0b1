"""Record the exact-output digests the benchmark checks against.

    python3 perfbench/record_digests.py 0 63

computes, for every seed in the inclusive range, the digest of each job's
exact output (the divisor track's U coefficients, the state after 40
evolve steps) without going through the CLI, and merges them into
``perfbench/digests.json``.  The benchmark needs seeds 0 .. 63
(``workloads.RECORDED_SEEDS``).  Run it only at a commit whose outputs are
taken as correct: a later run of the benchmark fails any job whose output
differs.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def dump(table) -> str:
    """JSON with one line per seed."""
    blocks = []
    for name in sorted(table):
        seeds = sorted(table[name].items(), key=lambda item: int(item[0]))
        rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(digests)}" for seed, digests in seeds)
        blocks.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def main():
    first, last = int(sys.argv[1]), int(sys.argv[2])
    work = HERE.parent / ".bench_work"
    work.mkdir(exist_ok=True)
    recorded = {}
    for workload in (w for w in workloads.WORKLOADS.values() if w.recorded):
        for seed in range(first, last + 1):
            with tempfile.TemporaryDirectory(dir=work) as tmp:
                jobs = workload.make_jobs(seed, Path(tmp))
            digests = [workload.reference(j) for j in jobs]
            recorded.setdefault(workload.name, {})[str(seed)] = digests
            print(workload.name, seed, flush=True)
    path = HERE / "digests.json"
    table = json.loads(path.read_text(encoding="utf-8"))
    for name, seeds in recorded.items():
        table.setdefault(name, {}).update(seeds)
    path.write_text(dump(table), encoding="utf-8")


if __name__ == "__main__":
    main()
