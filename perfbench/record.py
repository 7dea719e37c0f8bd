"""Record the reference output digest of every workload for a range of seeds.

    python3 perfbench/record.py --first 0 --last 63

For each seed, runs one single-threaded pass of each workload, checks
its invariants and stores the SHA-256 of the output CSV in
``references.json``.  The benchmark then fails any pass whose output
differs.  Record again only for a change that is meant to alter the
output, and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--first", type=int, default=0)
    p.add_argument("--last", type=int, required=True)
    args = p.parse_args(argv)
    run.import_program()
    import scenes
    import workloads

    refs = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.is_file() else {}
    table = refs.setdefault("full", {})
    for seed in range(args.first, args.last + 1):
        for name in scenes.WORKLOADS:
            workdir = run.WORK / f"record-{name}-{seed}"
            try:
                scene = scenes.generate(name, seed, workdir)
                timing, result = workloads.run_pass(scene, workdir / "out.csv", threads=1)
                problem = workloads.check_output(scene, result)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if problem is not None:
                raise SystemExit(f"{name} seed {seed}: {problem}")
            table.setdefault(name, {})[str(seed)] = timing.digest
            print(name, seed, timing.blocks_out, timing.digest, flush=True)
        run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
