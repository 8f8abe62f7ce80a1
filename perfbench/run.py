"""fiblike benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; fiblike is imported from its
``src/`` directory.  Workloads: identity-sweep, deep-terms, spectral
(see ``workloads.py``; the reasons for each are in ``rationale.json``).

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``: one
untraced worker process runs the closed loop, and six more processes only
set up, three before it and three after, so that ``setup_s`` is a median of
seven taken on both sides of the loop.  ``--trace 1`` reports the
per-layer metrics: a traced worker, an untraced worker replaying the first
third of the same requests (for ``trace_overhead_share``) and the
cold-process probes.

Every run also sends, in a process of its own and outside any timing, a
fixed set of inputs that fiblike 0.1.0 answers wrongly (deep
``dresden_round``, polynomials with three positive roots); the share that
comes back wrong is in the report and is the per-layer metric
``charpoly.known_wrong_share``.  The timed loops hold only inputs that
fiblike 0.1.0 answers correctly.

Earlier stdout lines carry a human-readable report with provenance; the
last line is ``{"correct", "attempted", "failed", "metrics"}``.  A timed
request that raises, exits non-zero or gives a wrong answer counts as
failed, and ``correct`` is false when any request failed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 7
PROBE_RUNS = 5
# The same percentile on every workload and commit: the highest of 90/95/99
# that leaves well over ten samples beyond it in a run of fiblike 0.1.0.
TAIL_PERCENTILE = 95.0

sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402


class BenchError(RuntimeError):
    pass


def _spawn(cmd: list[str], timeout: float, env: dict | None = None) -> tuple[float, float, str, str]:
    """Run a child in a new process group; kill the whole group on timeout."""
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"timed out after {timeout:.0f}s: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}\n{err[-2000:]}")
    return started, time.monotonic(), out, err


def _worker(args: argparse.Namespace, *extra: str, seconds: float | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds or args.seconds), *extra]
    started, _, out, _ = _spawn(cmd, timeout=60 + 6 * args.seconds)
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["ready"] - started
    return report


def _window_rates(latencies_ms: list[float], failed: set[int], window_ms: float = 1000.0) -> list[float]:
    """Correct operations per second in consecutive windows of about one
    second of service time each (a short last window is dropped)."""
    rates, ok, busy = [], 0, 0.0
    for i, ms in enumerate(latencies_ms):
        ok += i not in failed
        busy += ms
        if busy >= window_ms:
            rates.append(ok / busy * 1e3)
            ok, busy = 0, 0.0
    return rates or [ok / busy * 1e3]


def _percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    pos = pct / 100 * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
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


def _outcome(report: dict) -> dict:
    failed = len(report["failures"])
    return {"correct": failed == 0 and report["attempted"] > 0, "attempted": report["attempted"],
            "failed": failed, "failures": report["failures"][:10]}


def known_wrong(args: argparse.Namespace) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", "spectral", "--seed", str(args.seed),
           "--seconds", "1", "--known-wrong"]
    _, _, out, _ = _spawn(cmd, timeout=120)
    report = json.loads(out.strip().splitlines()[-1])
    report["share"] = report["wrong"] / report["attempted"]
    return report


def end_to_end(args: argparse.Namespace) -> tuple[dict, dict]:
    half = (SETUP_RUNS - 1) // 2
    setups = [_worker(args, "--setup-only")["setup_s"] for _ in range(half)]
    report = _worker(args)
    setups.append(report["setup_s"])
    setups += [_worker(args, "--setup-only")["setup_s"] for _ in range(SETUP_RUNS - 1 - half)]
    outcome = _outcome(report)
    latencies = report["latencies_ms"]
    ok = outcome["attempted"] - outcome["failed"]
    tail_value = _percentile(latencies, TAIL_PERCENTILE)
    # The median over one-second windows, so that a slow spell of a few
    # seconds on a shared host does not move the whole run's figure.
    rates = _window_rates(latencies, {f["request"] for f in report["failures"]})
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail_value,
        "ok_share": ok / outcome["attempted"],
        "peak_rss_mib": report["peak_rss_kib"] / 1024,
    }
    detail = {
        "setup_s_runs": setups,
        "latency_tail_percentile": TAIL_PERCENTILE,
        "latency_tail_samples_beyond": sum(v > tail_value for v in latencies),
        "samples": len(latencies),
        "ops_per_s_windows": len(rates),
        "ops_per_s_whole_run": ok / report["busy_s"],
        "fail_share": outcome["failed"] / outcome["attempted"],
        "provenance": report["provenance"],
    }
    return values, {**outcome, **detail}


GEN_PROBE = (
    "import runpy, sys\n"
    "sys.argv = ['fiblike', 'gen', '--knacci', '3', '--to', '10']\n"
    "try:\n"
    "    runpy.run_module('fiblike', run_name='__main__', alter_sys=True)\n"
    "except SystemExit:\n"
    "    pass\n"
    "sys.stderr.write('mpmath_loaded=%d\\n' % ('mpmath' in sys.modules))\n"
)


def cold_probes() -> dict:
    """Bare interpreter start, the ``fiblike.cli`` import on top of it, and
    whether ``gen`` loads mpmath; medians over interleaved repeats."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    bare, imported, loads = [], [], []
    for _ in range(PROBE_RUNS):
        start, end, _, _ = _spawn([sys.executable, "-c", "pass"], 60, env)
        bare.append(end - start)
        start, end, _, _ = _spawn([sys.executable, "-c", "import fiblike.cli"], 60, env)
        imported.append(end - start)
        _, _, _, err = _spawn([sys.executable, "-c", GEN_PROBE], 60, env)
        loads.append(int("mpmath_loaded=1" in err))
    interp = statistics.median(bare)
    return {
        "cli.interp_start_ms": interp * 1e3,
        "cli.import_ms": (statistics.median(imported) - interp) * 1e3,
        "cli.gen_loads_mpmath": max(loads),
    }


def per_layer(args: argparse.Namespace) -> tuple[dict, dict]:
    traced = _worker(args, "--trace")
    outcome = _outcome(traced)
    # The same requests untraced, in a fresh process; a third is enough.
    count = max(1, traced["attempted"] // 3)
    replay = _worker(args, "--max-requests", str(count), "--no-check", seconds=3 * args.seconds)
    if replay["attempted"] != count:
        raise BenchError("the untraced replay did not finish its requests")
    values = spans.layer_metrics(traced["trace"])
    values["sequences.retained_mib"] = traced["retained_bytes"] / 2**20
    values.update(cold_probes())
    wrong = known_wrong(args)
    values["charpoly.known_wrong_share"] = wrong["share"]
    values["trace_overhead_share"] = sum(traced["latencies_ms"][:count]) / sum(replay["latencies_ms"]) - 1
    return values, {**outcome, "known_wrong": wrong, "provenance": traced["provenance"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "fiblike" / "__init__.py").is_file():
        print(f"error: no fiblike sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    try:
        values, detail = per_layer(args) if args.trace else end_to_end(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 1
    detail["provenance"].update(
        {"nproc": len(os.sched_getaffinity(0)), "commit": _git_commit(), "seed": args.seed, "workload": args.workload,
         "seconds": args.seconds, "trace": args.trace}
    )
    if "known_wrong" not in detail:
        detail["known_wrong"] = known_wrong(args)
    print(json.dumps({"report": detail}))
    print(json.dumps({
        "correct": detail["correct"],
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
