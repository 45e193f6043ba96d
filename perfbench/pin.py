"""Record the reference outputs that ``pinned.json`` holds.

    python3 perfbench/pin.py

Runs one cycle of each workload on every instance with the program in
``src/`` and rewrites the file with the checked values.  Run it only on
the code the pins are meant to describe: the benchmark counts any later
output that differs by more than 1e-10 relative as a failed operation.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402


def pin_instance(cli, workload: str, instance: int) -> dict:
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=HERE.parent))
    try:
        inputs = wl.make_inputs(workload, instance, workdir)
        ref = wl.references(workload, inputs)
        payloads = {}
        for op in wl.make_ops(workload, instance, inputs, None):
            _, code, stdout, stderr, _ = run.run_op(cli, op)
            error = run.check_op(op, code, stdout, stderr, ref)
            if error:
                raise SystemExit(f"{workload}/{instance} {op.name}: {error}")
            payloads[op.name] = json.loads(stdout)
        return wl.pin_values(workload, payloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    cli = run._import_lbcs()
    table = {w: {str(i): pin_instance(cli, w, i)
                 for i in range(wl.INSTANCES)}
             for w in wl.WORKLOADS}
    wl.PINNED_PATH.write_text(json.dumps(table, indent=1, sort_keys=True)
                              + "\n")


if __name__ == "__main__":
    main()
