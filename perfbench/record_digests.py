"""Record the output digests that ``run.py`` checks every run against.

    python3 perfbench/record_digests.py

For each workload and each run seed below, every input the run draws
from that seed is generated, run once as a fresh process, checked
against the seed-independent invariants, and its output files hashed.
The table is written to ``perfbench/digests.json``; inputs it already
records are kept, so delete the file to record everything afresh.  Run
it only at a commit whose outputs are known to be right: the digests
then pin every later commit to byte-identical reports on these seeds.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads

DEFAULT_SEED = 7
#: Not used while the benchmark was tuned; re-check claims on it.
HELD_OUT_SEED = 90001
RUN_SEEDS = sorted(set(range(0, 21)) | {DEFAULT_SEED, HELD_OUT_SEED})


def main() -> int:
    run.load_program()
    path = run.HERE / "digests.json"
    table = {"workloads": {}}
    if path.is_file():
        table = json.loads(path.read_text(encoding="utf-8"))
    table.update(default_seed=DEFAULT_SEED, held_out_seed=HELD_OUT_SEED,
                 run_seeds=RUN_SEEDS, inputs_per_run=run.INPUTS_PER_RUN)

    work = run.WORK / "record"
    for name, workload in workloads.WORKLOADS.items():
        recorded = table["workloads"].setdefault(name, {})
        for run_seed in RUN_SEEDS:
            for seed in run.dataset_seeds(run_seed, run.INPUTS_PER_RUN):
                if str(seed) in recorded:
                    continue
                shutil.rmtree(work, ignore_errors=True)
                dataset = run.Dataset(workload, seed, work / "data")
                dataset.expected = None
                probe = run.Run(workload, work)
                probe.probe(dataset)
                if probe.failures:
                    print(f"{name} seed {seed}: {probe.failures[0]}",
                          file=sys.stderr)
                    return 1
                recorded[str(seed)] = dataset.reference
                print(f"{name} seed {seed}: {len(dataset.reference)} files, "
                      f"{dataset.sizes}", flush=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    try:
        run.WORK.rmdir()
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
