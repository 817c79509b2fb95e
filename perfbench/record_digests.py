"""Record the stdout digest of every command of every workload at seed 0.

    python3 perfbench/record_digests.py

Run from the repository root, at the commit whose output is the reference.
``run.py`` compares each run at seed 0 against ``digests.json``; the report
contract is byte-identical stdout for identical inputs and seeds.
"""
from __future__ import annotations

import json
import sys

from run import DIGEST_SEED, HERE, ROOT, Bench, parse_args

sys.path.insert(0, str(ROOT / "src"))


def main() -> None:
    import workloads

    digests = {}
    for workload in workloads.WORKLOADS:
        bench = Bench(parse_args(["--workload", workload, "--seed", str(DIGEST_SEED)]))
        digests[workload] = [digest for _, digest in bench.run_pass(traced=False)["verdicts"]]
    (HERE / "digests.json").write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
