"""Seeded closed-loop benchmark of the ``lbcs`` command line.

    python3 perfbench/run.py --workload compare-optimize-mol --seed 1 \
        --seconds 50 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``.  One caller runs the workload's commands in order, each an
in-process ``lbcs.cli.main(argv)`` call with its output captured and
checked, until ``--seconds`` have passed.  The second-to-last line of
output is a detailed report; the last line is the result
``{"correct", "attempted", "failed", "metrics"}`` with the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) named
in BENCHMARK.json.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Recorder, traced  # noqa: E402

SETUP_BLOCK = 3         # set-ups before every command and after the last
END_TO_END = {"setup_s": "s", "cycle_s": "s", "peak_rss_mb": "MB"}


def _import_lbcs():
    """A fresh import of the package from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "lbcs" or
                 m.startswith("lbcs.")]:
        del sys.modules[name]
    cli = importlib.import_module("lbcs.cli")
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"lbcs imported from {cli.__file__}, not src/")
    return cli


def setup(workload, instance, workdir, times):
    """SETUP_BLOCK set-ups, each a fresh import of lbcs plus generating and
    writing the inputs; appends their wall times to `times` and returns the
    last (cli, inputs).  Garbage is collected before each, untimed, so a
    collection left over from earlier work does not land in a sample."""
    for _ in range(SETUP_BLOCK):
        gc.collect()
        t0 = time.perf_counter()
        cli = _import_lbcs()
        inputs = wl.make_inputs(workload, instance, workdir)
        times.append(time.perf_counter() - t0)
    return cli, inputs


def run_op(cli, op, recorder=None):
    """One command; returns (wall seconds, exit code, stdout, stderr, spans)."""
    out, err = io.StringIO(), io.StringIO()
    ctx = traced(cli, recorder) if recorder else contextlib.nullcontext()
    with ctx, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejected the command line
            code = exc.code
        except Exception as exc:  # a crash is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
    spans = list(recorder.spans) if recorder else []
    return wall, code, out.getvalue(), err.getvalue(), spans


def check_op(op, code, stdout, stderr, ref):
    """None when the output is correct, else the reason it is not."""
    if code != 0:
        return f"exit code {code}: {stderr.strip()}"
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"unparseable output: {exc}"
    try:
        op.check(payload, ref)
    except (wl.CheckFailed, KeyError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None


def check_cycles(ops, cycles, ref):
    """Set each record's "error"; outputs are checked after the timed loop
    so the benchmark's own reference work stays out of the measurements."""
    by_name = {op.name: op for op in ops}
    for cycle in cycles:
        for rec in cycle["ops"]:
            rec["error"] = check_op(by_name[rec["op"]], rec["code"],
                                    rec["stdout"], rec["stderr"], ref)


def measure(cli, ops, seconds, trace, resetup=None):
    """Closed loop over whole cycles for about `seconds` of cycle time:
    another cycle starts while the time left exceeds half of the last
    cycle.  A traced run alternates untraced and traced cycles (at least one
    of each) so the tracing overhead is measured inside the run.  After
    every command, `resetup()`, when given, sets up afresh and returns the
    lbcs command line module the next command uses, so set-up samples are
    spread over the run; set-up time does not count against `seconds`."""
    cycles = []
    busy = 0.0
    while True:
        traced_cycle = trace and len(cycles) % 2 == 1
        records = []
        for op in ops:
            rec = Recorder() if traced_cycle else None
            wall, code, stdout, stderr, spans = run_op(cli, op, rec)
            records.append({"op": op.name, "wall": wall, "spans": spans,
                            "code": code, "stdout": stdout,
                            "stderr": stderr})
            if resetup is not None:
                cli = resetup()
        cycles.append({"traced": traced_cycle, "ops": records})
        last = sum(r["wall"] for r in records)
        busy += last
        if seconds - busy <= last / 2 and (not trace or len(cycles) >= 2):
            return cycles


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (ROOT / "src" / "lbcs" / "__init__.py").is_file():
        print(f"error: no lbcs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    instance = wl.instance_of(args.seed)

    pin = wl.pinned(args.workload, instance)
    if pin is None:
        print(f"error: no pinned values for {args.workload} instance "
              f"{instance} in {wl.PINNED_PATH.name}", file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        setup_times = []
        cli, inputs = setup(args.workload, instance, workdir, setup_times)
        ops = wl.make_ops(args.workload, instance, inputs, pin)
        cycles = measure(cli, ops, args.seconds, bool(args.trace),
                         lambda: setup(args.workload, instance, workdir,
                                       setup_times)[0])
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        check_cycles(ops, cycles, wl.references(args.workload, inputs))
        layer_report = (layers.report(instance, inputs, cycles)
                        if args.trace else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for c in cycles for r in c["ops"]]
    failures = [f"{r['op']}: {r['error']}" for r in records if r["error"]]
    plain = [c for c in cycles if not c["traced"]]
    cycle_s = statistics.median(sum(r["wall"] for r in c["ops"])
                                for c in plain)
    op_s = {op.name: statistics.median(r["wall"] for c in plain
                                       for r in c["ops"]
                                       if r["op"] == op.name)
            for op in ops}

    report = {
        "workload": args.workload, "seed": args.seed, "instance": instance,
        "inputs": inputs.digests, "cycles": len(cycles),
        "setup_s_all": setup_times,
        "cycle_s_all": [sum(r["wall"] for r in c["ops"]) for c in plain],
        "op_s": op_s, "failures": failures,
    }
    if args.trace:
        report["layers"] = layer_report["detail"]
        metrics = {k: _metric(v, u)
                   for k, (v, u) in layer_report["per_layer"].items()}
    else:
        values = {"setup_s": statistics.median(setup_times),
                  "cycle_s": cycle_s, "peak_rss_mb": peak_rss_mb}
        metrics = {k: _metric(values[k], u) for k, u in END_TO_END.items()}
    print(json.dumps(report))
    print(json.dumps({"correct": not failures, "attempted": len(records),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
