"""The splitspecies benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Draws the workload's op list from
the seed, times the package's cold import, then runs passes over the op
list until the next pass would overrun ``--seconds`` (at least one pass).
Every op's output is checked against a reference computed before timing,
and every time is rescaled to a reference machine speed (see calib.py).

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics; with ``--trace 1`` each round is an untraced pass and a
traced pass, and the JSON holds the per-layer metrics.  ``--workload all``
runs every workload in turn.  See perfbench/README.md for the definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from importlib import metadata

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

import calib  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 3  # cold imports before the passes, and again after them
WORK_DIR = ".bench_work"


@dataclass
class Pass:
    raw: list[float]       # measured op latencies, seconds
    factors: list[float]   # calibration factor of each op
    failures: list[str]
    rss_mb: float
    layer: dict[str, float] = field(default_factory=dict)
    self_ms: dict[str, float] = field(default_factory=dict)

    @property
    def latencies(self) -> list[float]:
        """Op latencies rescaled to the reference machine speed."""
        return [t * f for t, f in zip(self.raw, self.factors)]


class Bench:
    """One benchmark run in the checkout at ``root``; scratch files go to ``work``."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.python = sys.executable
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)

    # -- children -------------------------------------------------------------

    def child(self, argv: list[str]) -> tuple[float, int, bytes, float]:
        """Run one child to completion: (seconds, exit code, stdout, peak RSS in MB)."""
        with open(os.path.join(self.work, "stderr"), "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                    env=self.env, cwd=self.root)
            try:
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            elapsed = time.perf_counter() - t0
        proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return elapsed, proc.returncode, out, usage.ru_maxrss / 1024

    def stderr_tail(self) -> str:
        with open(os.path.join(self.work, "stderr"), errors="replace") as f:
            return f.read()[-300:].strip()

    def prepare(self):
        """Compile the package's bytecode so that import timings never include it."""
        self.child([self.python, "-m", "compileall", "-q", os.path.join(self.root, "src")])

    def setup_times(self, module: str, count: int) -> list[float]:
        """Cold-import times of ``module``, each in a fresh interpreter, calibrated."""
        code = (f"import sys, time; sys.path.insert(0, {BENCH_DIR!r}); import calib; "
                f"c0 = calib.loop_sample(); t = time.perf_counter(); import {module}; "
                f"dt = time.perf_counter() - t; print(dt * calib.factors([c0, calib.loop_sample()])[0])")
        out = []
        for _ in range(count):
            _, rc, stdout, _ = self.child([self.python, "-c", code])
            if rc != 0:
                raise RuntimeError(f"import {module} failed: {self.stderr_tail()}")
            out.append(float(stdout))
        return out

    # -- passes -----------------------------------------------------------------

    def inproc_pass(self, workload: str, ops_path: str, traced: bool) -> Pass:
        out_path = os.path.join(self.work, "pass.json")
        argv = [self.python, os.path.join(BENCH_DIR, "inproc.py"), workload, ops_path,
                out_path, "1" if traced else "0"]
        _, rc, _, rss = self.child(argv)
        if rc != 0:
            raise RuntimeError(f"{workload} pass exited {rc}: {self.stderr_tail()}")
        with open(out_path) as f:
            res = json.load(f)
        result = Pass(res["latencies"], calib.factors(res["samples"]), res["failures"], rss)
        if traced:
            result.self_ms = spans.self_times_ms(res["spans"], result.factors)
            result.layer = spans.layer_metrics(result.self_ms, res["counters"], 0.0, 0)
        return result

    def cli_pass(self, ops: list[dict], traced: bool, digests: list) -> Pass:
        spans_path = os.path.join(self.work, "spans.json")
        latencies, failures, rss, dumps = [], [], 0.0, []
        samples = [calib.loop_sample()]
        for i, op in enumerate(ops):
            if traced:
                argv = [self.python, os.path.join(BENCH_DIR, "launch.py"), spans_path, *op["argv"]]
            else:
                argv = [self.python, "-m", "splitspecies.cli", *op["argv"]]
            elapsed, rc, out, child_rss = self.child(argv)
            samples.append(calib.loop_sample())
            latencies.append(elapsed)
            rss = max(rss, child_rss)
            digest = hashlib.sha256(out).hexdigest()
            if rc != 0:
                reason = f"exit code {rc}: {self.stderr_tail()}"
            elif traced and digest != digests[i]:
                reason = "traced stdout differs from untraced stdout"
            else:
                reason = reference.check_cli(op["check"], out)
            if reason:
                failures.append(f"op {i} {' '.join(op['argv'])}: {reason}")
            if digests[i] is None:
                digests[i] = digest
            if traced:
                with open(spans_path) as f:
                    dumps.append(json.load(f))
                dumps[-1]["stdout_bytes"] = len(out)
        result = Pass(latencies, calib.factors(samples), failures, rss)
        if traced:
            self_ms: dict[str, float] = {}
            import_ms = 0.0
            for d, factor in zip(dumps, result.factors):
                for name, ms in spans.self_times_ms(d["spans"]).items():
                    self_ms[name] = self_ms.get(name, 0.0) + ms * factor
                import_ms += d["import_ms"] * factor
            result.self_ms = self_ms
            result.layer = spans.layer_metrics(self_ms, spans.merge_counters(dumps), import_ms,
                                               sum(d["stdout_bytes"] for d in dumps))
        return result

    # -- one workload -------------------------------------------------------------

    def run(self, workload: str, seed: int, seconds: float, trace: bool) -> dict:
        ops = workloads.WORKLOADS[workload](seed, self.root)
        in_process = workload in workloads.IN_PROCESS
        module = "splitspecies" if in_process else "splitspecies.cli"
        self.setup_times(module, 1)  # warm the file cache
        setup = self.setup_times(module, SETUP_SAMPLES)
        ops_path = os.path.join(self.work, "ops.json")
        if in_process:
            with open(ops_path, "w") as f:
                json.dump(ops, f)
        digests = [None] * len(ops)

        def run_pass(traced: bool) -> Pass:
            if in_process:
                return self.inproc_pass(workload, ops_path, traced)
            return self.cli_pass(ops, traced, digests)

        plain, traced = [], []
        start = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            plain.append(run_pass(False))
            if trace:
                traced.append(run_pass(True))
            if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
                break
        setup += self.setup_times(module, SETUP_SAMPLES)
        return summarize(workload, seed, ops, setup, plain, traced)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ten samples beyond it."""
    xs = sorted(values)
    if len(xs) <= 10:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def summarize(workload: str, seed: int, ops: list, setup: list[float],
              plain: list[Pass], traced: list[Pass]) -> dict:
    every = plain + traced
    failures = [f for p in every for f in p.failures]
    attempted = sum(len(p.latencies) for p in every)
    # each op's latency is its median over the untraced passes
    per_op = [statistics.median(p.latencies[i] for p in plain) for i in range(len(ops))]
    tail_s, tail_pct = tail(per_op)
    run_s = sum(per_op)
    end_to_end = {
        "run_s": (run_s, "s"),
        "op_p50_ms": (statistics.median(per_op) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (max(p.rss_mb for p in plain), "MB"),
    }
    result = {
        "workload": workload,
        "seed": seed,
        "ops": len(ops),
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failures": failures,
        "fail_ratio": len(failures) / attempted,
        "op_tail_percentile": round(tail_pct, 2),
        "op_tail_samples": len(per_op),
        "setup_samples_s": setup,
        "pass_run_s": [sum(p.latencies) for p in plain],
        "pass_raw_run_s": [sum(p.raw) for p in plain],
        "end_to_end": end_to_end,
    }
    if traced:
        traced_s = sum(statistics.median(p.latencies[i] for p in traced) for i in range(len(ops)))
        overhead = traced_s / run_s - 1
        layer = {name: statistics.median(p.layer[name] for p in traced)
                 for name in traced[0].layer}
        layer["trace.overhead_ratio"] = overhead
        result["trace_overhead_ratio"] = overhead
        result["layer_self_share"] = spans.layer_shares(traced[0].self_ms)
        result["per_layer"] = layer
    return result


def idlest_cpu() -> int:
    """The allowed CPU that was idle longest over 0.2 s (the first one without /proc/stat)."""
    allowed = sorted(os.sched_getaffinity(0))

    def idle() -> dict[int, int]:
        with open("/proc/stat") as f:
            rows = [line.split() for line in f if line.startswith("cpu")]
        return {int(r[0][3:]): int(r[4]) for r in rows if r[0] != "cpu"}

    try:
        before = idle()
        time.sleep(0.2)
        after = idle()
    except OSError:
        return allowed[0]
    return max(allowed, key=lambda c: after.get(c, 0) - before.get(c, 0))


def provenance(root: str) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    git_sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "splitspecies")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as f:
                digest.update(name.encode() + b"\0" + f.read())
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "mpmath": version("mpmath"),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
    }


def load_units() -> dict[str, str]:
    with open(os.path.join(BENCH_DIR, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(result: dict, trace: bool, units: dict[str, str]) -> dict:
    """Print one workload's summary lines; return its metrics for the JSON line."""
    name = result["workload"]
    for failure in result["failures"]:
        print(f"FAIL {name}: {failure}")
    print(f"{name}: {result['ops']} ops, {result['passes']} passes, "
          f"fail_ratio {result['fail_ratio']:.4g}, op_tail at p{result['op_tail_percentile']} "
          f"of {result['op_tail_samples']} ops")
    if trace:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["per_layer"].items()}
        shares = ", ".join(f"{k} {v:.3f}" for k, v in
                           sorted(result["layer_self_share"].items(), key=lambda kv: -kv[1]))
        print(f"{name}: self-time share by layer: {shares}")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["end_to_end"].items()}
    for key, m in metrics.items():
        print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "splitspecies", "__init__.py")):
        print("error: run from the root of a splitspecies checkout (src/splitspecies not found)",
              file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # reference counts reach thousands of digits
    # one core for this process and its children, so calibration samples see
    # the same core as the ops they bracket
    os.sched_setaffinity(0, {idlest_cpu()})
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, WORK_DIR))
    try:
        bench = Bench(root, work)
        bench.prepare()
        names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        results = [bench.run(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = load_units()
    prov = provenance(root)
    metrics = {}
    for result in results:
        for key, value in report(result, bool(args.trace), units).items():
            metrics[key if len(results) == 1 else f"{result['workload']}.{key}"] = value
        print("provenance " + json.dumps({
            **prov, **{k: result[k] for k in (
                "workload", "seed", "ops", "passes", "traced_passes", "fail_ratio",
                "op_tail_percentile", "op_tail_samples", "setup_samples_s", "pass_run_s",
                "pass_raw_run_s")},
            "seconds": args.seconds,
            "trace_overhead_ratio": result.get("trace_overhead_ratio"),
        }))
    failed = sum(len(r["failures"]) for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
