#!/usr/bin/env python3
"""Benchmark of the biquad-hnp command line, run against this checkout's src/.

    python3 perfbench/run.py --workload count-1e10 --seed 1 --seconds 30 --trace 0

Each run of a workload is a fresh single-threaded interpreter executing
the CLI from ``src/`` (no install step), timed from this process, with
its peak RSS read from its own rusage (``os.wait4``).  Every output is
checked against pinned values; a wrong or failed run counts toward
``failed`` and makes this command exit 1.  The workload repeats until
``--seconds`` have passed (at least once), and the medians are reported.

With ``--trace 0`` the end-to-end metrics are printed; with ``--trace 1``
untraced and traced runs alternate and the per-layer metrics of the
traced runs (see tracer.py) are printed, with the tracing overhead.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment
and every sample go to ``.perfbench/results/``.

The enumeration has no randomness: ``--seed`` is recorded and only sets
the order of runs (where each set-up probe falls among the workload
runs, and which run of a traced pair goes first).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable

import tracer  # perfbench/ is on sys.path as the script's own directory

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TRACER = HERE / "tracer.py"

SETUP_PROBES = 10  # least number of timed fresh-interpreter imports per run
PROBES_PER_STEP = 2
RUN_LIMIT_S = 170.0  # the whole command ends within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")

# Same entry as the installed `biquad-hnp` console script.
CLI_ENTRY = "import sys; from biquad_hnp.cli import main; sys.exit(main())"
SETUP_ENTRY = "import biquad_hnp.cli"
ENV_PROBE = """
import importlib.util, json, numpy
from biquad_hnp import _kernels
print(json.dumps({"numpy": numpy.__version__,
                  "numba_importable": importlib.util.find_spec("numba") is not None,
                  "kernel": "numba" if _kernels.USING_NUMBA else "fallback"}))
"""

Gate = Callable[["Outcome"], list]


@dataclass
class Outcome:
    """What one child run left behind, for the correctness gate."""

    exit_code: int
    stdout: str
    records: Path | None


@dataclass
class Workload:
    name: str
    cli_args: list[str]  # "{records}" is replaced by the NDJSON path
    gate: Gate
    emits_fields: bool  # whether fields_per_s applies

    def argv(self, records: Path) -> list[str]:
        return [a.replace("{records}", str(records)) for a in self.cli_args]

    @property
    def writes_records(self) -> bool:
        return any("{records}" in a for a in self.cli_args)


def _json_report(out: Outcome) -> tuple[dict | None, list[str]]:
    if out.exit_code != 0:
        return None, [f"exit code {out.exit_code}"]
    try:
        return json.loads(out.stdout), []
    except json.JSONDecodeError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def count_gate(S: int, S_tilde: int, ordered_total: int) -> Gate:
    expected = {"S": S, "S_tilde": S_tilde, "ordered_total": ordered_total}

    def check(out: Outcome) -> list[str]:
        report, errors = _json_report(out)
        if report is None:
            return errors
        return [
            f"{key} = {report.get(key)!r}, expected {value}"
            for key, value in expected.items()
            if report.get(key) != value
        ]

    return check


def records_gate(lines: int, fails: int, max_disc: int, sha256: str) -> Gate:
    def check(out: Outcome) -> list[str]:
        report, errors = _json_report(out)
        if report is None:
            return errors
        data = out.records.read_bytes()
        rows = [json.loads(line) for line in data.splitlines()]
        discs = [row["disc"] for row in rows]
        n_fails = sum(1 for row in rows if row["verdict"] == "fails")
        digest = hashlib.sha256(data).hexdigest()
        if len(rows) != lines:
            errors.append(f"{len(rows)} records, expected {lines}")
        if len(rows) != report.get("S"):
            errors.append(f"{len(rows)} records but S = {report.get('S')!r}")
        if n_fails != fails:
            errors.append(f"{n_fails} 'fails' verdicts, expected {fails}")
        if any(b < a for a, b in zip(discs, discs[1:])):
            errors.append("disc decreases along the stream")
        if discs and max(discs) > max_disc:
            errors.append(f"disc {max(discs)} exceeds {max_disc}")
        if digest != sha256:
            errors.append(f"stream sha256 {digest}, expected {sha256}")
        return errors

    return check


def verify_gate(out: Outcome) -> list[str]:
    report, errors = _json_report(out)
    if report is None:
        return errors
    checks = report.get("checks") or []
    if not checks:
        errors.append("no checks reported")
    errors += [f"check failed: {c.get('name')}" for c in checks if not c.get("passed")]
    if report.get("passed") is not True:
        errors.append("report does not say passed")
    return errors


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "count-1e10",
            ["count", "--max-disc", "1e10", "--format", "json"],
            count_gate(S=242710, S_tilde=22841, ordered_total=1456260),
            emits_fields=True,
        ),
        Workload(
            "records-1e9",
            ["count", "--max-disc", "1e9", "--records", "{records}", "--format", "json"],
            # sha256 of the stream written by the commit that defined this benchmark
            records_gate(
                lines=64316,
                fails=6497,
                max_disc=10**9,
                sha256="76ac562b179a1f1b2e8eff511dbaac070ca92eff8e56005e1f130a6c92534d6a",
            ),
            emits_fields=True,
        ),
        Workload("verify", ["verify", "--format", "json"], verify_gate, emits_fields=False),
    )
}


@dataclass
class Sample:
    wall_s: float
    peak_rss_mb: float
    ok: bool
    errors: list[str]
    S: int | None = None
    layers: dict | None = None
    records_bytes: int = 0


@dataclass
class Bench:
    """Runs children against the checkout's src/ and collects their samples."""

    started: float = field(default_factory=time.perf_counter)
    work: Path = WORK / "work"

    def env(self) -> dict[str, str]:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONHASHSEED"] = "0"
        for var in THREAD_VARS:
            env[var] = "1"
        return env

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list[str], stdout: Path) -> tuple[int, float, float]:
        """Run argv to completion: (exit code, wall s, peak RSS MB of that child)."""
        stderr = stdout.with_suffix(".err")
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env(), cwd=ROOT)
            killer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        killer.join()
        if proc.returncode != 0:
            sys.stderr.write(stderr.read_text(errors="replace")[-2000:])
        return proc.returncode, wall, usage.ru_maxrss / 1024.0

    def setup_probe(self) -> float:
        code, wall, _ = self.spawn([sys.executable, "-c", SETUP_ENTRY], self.work / "setup.out")
        if code != 0:
            raise SystemExit(f"importing biquad_hnp.cli failed with exit code {code}")
        return wall

    def environment(self) -> dict:
        code, _, _ = self.spawn([sys.executable, "-c", ENV_PROBE], self.work / "env.out")
        if code != 0:
            raise SystemExit(f"importing biquad_hnp failed with exit code {code}")
        probe = json.loads((self.work / "env.out").read_text())
        return {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": probe["numpy"],
            "numba_importable": probe["numba_importable"],
            "kernel": probe["kernel"],
            "BIQUAD_HNP_PURE_PYTHON": os.environ.get("BIQUAD_HNP_PURE_PYTHON"),
            "threads": 1,
            "commit": git_commit(ROOT),
            "machine": platform.machine(),
        }

    def run_workload(self, w: Workload, traced: bool) -> Sample:
        records = self.work / "records.ndjson"
        records.unlink(missing_ok=True)
        nodes = self.work / "nodes.json"
        if traced:
            argv = [sys.executable, str(TRACER), str(nodes), *w.argv(records)]
        else:
            argv = [sys.executable, "-c", CLI_ENTRY, *w.argv(records)]
        stdout = self.work / "cli.out"
        code, wall, rss = self.spawn(argv, stdout)
        outcome = Outcome(code, stdout.read_text(errors="replace"), records)
        try:
            errors = w.gate(outcome)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            errors = [f"output unreadable: {exc!r}"]
        sample = Sample(wall, rss, not errors, errors)
        if not errors:
            sample.S = json.loads(outcome.stdout).get("S")
        if w.writes_records and records.exists():
            sample.records_bytes = records.stat().st_size
            records.unlink()
        if traced and not errors:
            sample.layers = tracer.layer_metrics(json.loads(nodes.read_text()))
        return sample


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without leaving it; 'unknown' if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure(bench: Bench, w: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds``; return the full result record."""
    rng = random.Random(seed)
    bench.work.mkdir(parents=True, exist_ok=True)
    env = bench.environment()  # also the warm-up import
    setup: list[float] = []
    untraced: list[Sample] = []
    traced: list[Sample] = []
    t0 = time.perf_counter()
    while True:
        # one step: set-up probes and one run (a traced pair with --trace 1)
        # in an order drawn from the seed, so probes sample the same window
        step = ["probe"] * PROBES_PER_STEP + ["untraced"] + (["traced"] if trace else [])
        rng.shuffle(step)
        for action in step:
            if action == "probe":
                setup.append(bench.setup_probe())
            else:
                is_traced = action == "traced"
                (traced if is_traced else untraced).append(bench.run_workload(w, is_traced))
        elapsed = time.perf_counter() - t0
        per_step = elapsed / len(untraced)
        if elapsed >= seconds or per_step > bench.remaining() - 5:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(bench.setup_probe())

    samples = untraced + traced
    failed = sum(1 for s in samples if not s.ok)
    good = [s for s in untraced if s.ok]
    timed = good or untraced  # a run that failed is still timed
    wall = median([s.wall_s for s in timed])
    summary = {
        "wall_s": wall,
        "setup_s": median(setup),
        "peak_rss_mb": median([s.peak_rss_mb for s in timed]),
    }
    extra = {
        "failed_frac": failed / len(samples),
        "runs": len(untraced),
        "setup_probes": len(setup),
    }
    if w.emits_fields and good:
        extra["fields_per_s"] = good[0].S / wall
    metrics = trace_metrics(untraced, traced) if trace else summary
    units = metric_units()
    return {
        "workload": w.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "attempted": len(samples),
        "failed": failed,
        "errors": [e for s in samples for e in s.errors],
        "end_to_end": {**summary, **extra},
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": {
            "setup_s": setup,
            "untraced": [s.__dict__ for s in untraced],
            "traced": [s.__dict__ for s in traced],
        },
    }


def metric_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def trace_metrics(untraced: list[Sample], traced: list[Sample]) -> dict:
    """Medians over the traced runs, plus the overhead against the untraced ones."""
    good = [s for s in traced if s.layers is not None]
    plain = [s.wall_s for s in untraced if s.ok]
    if not good or not plain:
        return {}
    metrics = {
        key: median([s.layers[key] for s in good])
        for key in good[0].layers
        if key != "trace.layers_s"
    }
    metrics["cli.records_bytes"] = good[0].records_bytes
    traced_wall = median([s.wall_s for s in good])
    metrics["trace.overhead_s"] = traced_wall - median(plain)
    metrics["trace.unaccounted_s"] = median([s.wall_s - s.layers["trace.layers_s"] for s in good])
    return metrics


def report_lines(result: dict) -> list[str]:
    env = result["environment"]
    e2e = result["end_to_end"]
    lines = [
        "environment: " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"workload {result['workload']}: seed {result['seed']}, trace {result['trace']}, "
        f"{e2e['runs']} untraced runs, {e2e['setup_probes']} set-up probes",
        f"  wall_s       {e2e['wall_s']:.4f} s (median)",
        f"  setup_s      {e2e['setup_s']:.4f} s (median)",
        f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB (median)",
    ]
    if "fields_per_s" in e2e:
        lines.append(f"  fields_per_s {e2e['fields_per_s']:.1f} 1/s")
    lines.append(
        f"  failed_frac  {e2e['failed_frac']:.4f} ({result['failed']}/{result['attempted']})"
    )
    if result["trace"]:
        for key, m in result["metrics"].items():
            lines.append(f"  {key:<34} {m['value']:.6g} {m['unit']}")
    lines += [f"  error: {e}" for e in result["errors"]]
    return lines


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "biquad_hnp" / "cli.py").is_file():
        print(f"error: no biquad_hnp source tree under {SRC}", file=sys.stderr)
        return 2
    result = measure(Bench(), WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(result, indent=2))
    for line in report_lines(result):
        print(line)
    correct = result["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
