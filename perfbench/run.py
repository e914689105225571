"""Benchmark of rankcodes: one workload per run, end to end or traced.

    python3 perfbench/run.py --workload closed_scan --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The run sets the workload up, checks the
field towers it built against sympy, then repeats whole passes over the
workload's operations until ``--seconds`` would be exceeded (at least one
pass), checking every output.  The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (run_s, setup_s, cli_cmd_s,
peak_rss_mb); with ``--trace 1`` they are the per-layer spans and counters,
and the trace itself is written under perfbench/out/.  See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from reference import CheckFailed, OpError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Fresh interpreters started per run to time set-up; setup_s is their median.
SETUP_SAMPLES = 5
# Seeded samples per tower for the sympy cross-check of mul/inv/frobenius/add.
TOWER_SAMPLES = 200
CHILD_TIMEOUT_S = 120


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _setup_samples(workload: str, seed: int) -> list:
    """(seconds to ready, import_s, modules) from fresh interpreters."""
    out = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(HERE / "probe.py"), workload, str(seed)],
                                stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
        line = proc.stdout.readline()
        ready = perf_counter() - t0
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=CHILD_TIMEOUT_S) != 0 or not line.startswith("ready "):
            raise RuntimeError(f"set-up probe for {workload} failed")
        _, import_s, modules = line.split()
        out.append((ready, float(import_s), int(modules)))
    return out


def _check_towers(towers, seed: int) -> list:
    """Problems found comparing each tower with sympy's galoistools."""
    specs = []
    for t in towers:
        rng = random.Random(f"{seed}:tower:{t.p}:{t.m}")
        samples = []
        for _ in range(TOWER_SAMPLES):
            a, b = rng.randrange(1, t.order), rng.randrange(t.order)
            i = rng.randrange(1, t.m) if t.m > 1 else 0
            samples.append([a, b, i, t.mul(a, b), t.inv(a), t.frobenius(a, i), t.add(a, b)])
        specs.append({"p": t.p, "m": t.m, "modulus": list(t.modulus), "samples": samples})
    proc = subprocess.run([sys.executable, str(HERE / "towercheck.py")], input=json.dumps(specs),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        return [f"tower check did not run: {proc.stderr.strip()[-200:]}"]
    return json.loads(proc.stdout)


@dataclass
class CliResult:
    rc: int
    stdout: str
    stderr: str
    seconds: float
    maxrss_kb: int


def _spawn_cli(argv, cwd: Path, trace_out: Path | None) -> CliResult:
    if trace_out is None:
        cmd = [sys.executable, "-m", "rankcodes.cli", *argv]
        env = _env()
    else:
        cmd = [sys.executable, str(HERE / "clitrace.py"), *argv]
        env = dict(_env(), PERFBENCH_TRACE_OUT=str(trace_out))
    with open(cwd / ".stdout", "w+") as fo, open(cwd / ".stderr", "w+") as fe:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=fo, stderr=fe, cwd=cwd, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        fo.seek(0)
        fe.seek(0)
        return CliResult(proc.returncode, fo.read(), fe.read(), seconds, usage.ru_maxrss)


def _run_passes(wl, seconds: float, tracer, scratch: Path):
    """Whole passes until the next would end after ``seconds``; per-pass records."""
    passes = []
    start = perf_counter()
    while True:
        first = not passes
        if tracer is not None:
            tracer.reset()
        outs, errors, op_s, rss = {}, {}, [], []
        t_pass = perf_counter()
        for op in wl.ops:
            t0 = perf_counter()
            try:
                if op.argv is not None:
                    trace_out = scratch / ".trace.json" if tracer is not None else None
                    if trace_out is not None:
                        trace_out.unlink(missing_ok=True)
                    res = _spawn_cli(op.argv, scratch, trace_out)
                    rss.append(res.maxrss_kb)
                    if trace_out is not None and trace_out.exists():
                        tracer.absorb(json.loads(trace_out.read_text()))
                    outs[op.name] = res
                else:
                    outs[op.name] = op.call()
            except Exception as exc:  # an operation that raises counts as failed
                errors[op.name] = f"{type(exc).__name__}: {exc}"
            op_s.append(perf_counter() - t0)
        wall = perf_counter() - t_pass
        record = {"wall": wall, "op_s": op_s, "rss_kb": rss,
                  "trace": tracer.snapshot() if tracer is not None else None,
                  "work": tracer.work_by_dimension() if tracer is not None else None,
                  "failed": dict(errors), "wrong": {}}
        for op in wl.ops:
            if op.name in errors:
                continue
            try:
                op.check(outs[op.name], outs)
                if first and op.first_check is not None:
                    op.first_check(outs[op.name])
            except OpError as exc:
                record["failed"][op.name] = str(exc)
            except Exception as exc:  # CheckFailed, or output a check could not even read
                why = str(exc) if isinstance(exc, CheckFailed) else f"{type(exc).__name__}: {exc}"
                record["failed"][op.name] = why
                record["wrong"][op.name] = why
        passes.append(record)
        if perf_counter() - start + wall > seconds:
            return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["closed_scan", "subcode_scan", "wiretap_joint", "cli_session"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rankcodes" / "__init__.py").is_file():
        print(f"error: no rankcodes sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rankcodes
    if Path(rankcodes.__file__).resolve().parent != (SRC / "rankcodes").resolve():
        print(f"error: imported rankcodes from {rankcodes.__file__}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    samples = _setup_samples(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    scratch = OUT / f"{args.workload}-{os.getpid()}"
    scratch.mkdir()
    try:
        clock = workloads.Clock()
        wl = workloads.SETUPS[args.workload](args.seed, clock, scratch)
        problems = _check_towers(wl.towers, args.seed)
        for problem in problems:
            print(f"# tower check: {problem}", file=sys.stderr)
        tracer = Tracer() if args.trace else None
        if tracer is not None and not wl.cli:
            tracer.install()
        passes = _run_passes(wl, args.seconds, tracer, scratch)
        if tracer is not None:
            tracer.uninstall()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    failed = sum(len(p["failed"]) for p in passes)
    wrong = sum(len(p["wrong"]) for p in passes)
    for name, why in passes[0]["failed"].items():
        print(f"# failed: {name}: {why}", file=sys.stderr)
    result = {"correct": not problems and wrong == 0,
              "attempted": len(passes) * len(wl.ops),
              "failed": failed}
    walls = [p["wall"] for p in passes]
    if args.trace:
        metrics = {}
        for name, unit in _trace_units(passes[0]["trace"]):
            median = statistics.median_low if unit == "count" else statistics.median
            metrics[name] = {"value": median(p["trace"][name] for p in passes), "unit": unit}
        metrics["field.tower_build_s"] = {"value": clock.phases["tower"], "unit": "s"}
        metrics["codes.build_s"] = {"value": clock.phases["codes"], "unit": "s"}
        metrics["cli.import_s"] = {"value": statistics.median(s[1] for s in samples), "unit": "s"}
        metrics["cli.modules"] = {"value": statistics.median(s[2] for s in samples), "unit": "count"}
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"passes": passes, "setup_samples": samples,
                                          "setup_phases": clock.phases}, indent=1, default=str))
        print(f"# traced pass wall s: {statistics.median(walls)}", file=sys.stderr)
        print(f"# candidates per oracle:dimension: {json.dumps(passes[0]['work'])}")
    else:
        if wl.cli:
            peak_kb = max(k for p in passes for k in p["rss_kb"])
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "run_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(s[0] for s in samples), "unit": "s"},
            "cli_cmd_s": {"value": _op_seconds(wl, passes, walls), "unit": "s"},
            "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        }
    print(f"# passes: {len(passes)}, pass wall s: {[round(w, 4) for w in walls]}", file=sys.stderr)
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0


def _op_seconds(wl, passes, walls) -> float:
    """cli_session: median wall time of one CLI process.  Elsewhere the mean
    time of one library call, run_s over the operations in a pass: the
    median call there is a sub-millisecond helper that says nothing."""
    if wl.cli:
        return statistics.median(t for p in passes for t in p["op_s"])
    return statistics.median(walls) / len(wl.ops)


def _trace_units(snapshot: dict):
    for name in snapshot:
        if name.endswith("_s"):
            yield name, "s"
        elif name.endswith("_share"):
            yield name, "ratio"
        else:
            yield name, "count"


if __name__ == "__main__":
    sys.exit(main())
