"""Record the golden output digests that every benchmark op is checked against.

    python3 perfbench/record_golden.py

Runs each workload once on each of its `workloads.INPUT_VARIANTS` input
variants at the current engine and writes the sha256 of its canonical output
to perfbench/golden.json.
Run it only when the engine's output is meant to change; an optimisation must
leave every digest as it is.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    golden = {"digests": {}}
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="golden-", dir=ROOT / ".perfbench"))
    try:
        for name, w in workloads.WORKLOADS.items():
            digests = {}
            for variant in range(workloads.INPUT_VARIANTS):
                state = w.load(w.make_inputs(variant), workdir)
                digest, problems, _ = w.check(state, w.op(state))
                if problems:
                    print(f"{name} variant {variant}: {problems}", file=sys.stderr)
                    return 1
                digests[str(variant)] = digest
                print(f"{name} variant {variant}: {digest}", flush=True)
            golden["digests"][name] = digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
