"""One benchmark process: set up a workload, run its closed loop, report.

    python perfbench/worker.py --workload NAME --seed N --seconds S
        [--trace] [--setup-only] [--max-requests R] [--no-check] [--known-wrong]

Started fresh by ``run.py`` for every measurement, so the process-global
prefix cache and mpmath's caches start empty on every commit.  Set-up is
the interpreter start, the fiblike import and a warm-up drawn from its own
seed stream; ``ready`` marks its end on the system-wide monotonic clock.
The loop then sends requests until their summed service time reaches
``--seconds``; generating and checking a request happen between requests,
outside its timed interval.  The last stdout line is one JSON object.

``--known-wrong`` (spectral only) runs no loop: it sends the fixed set of
inputs that fiblike 0.1.0 answers wrongly, checks each the same way, and
reports how many came back wrong.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _arguments() -> argparse.Namespace:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--max-requests", type=int, default=None)
    parser.add_argument("--no-check", action="store_true")
    parser.add_argument("--known-wrong", action="store_true")
    return parser.parse_args()


def _attempt(workload, req, check: bool) -> tuple[float, str | None]:
    """Send one request; its service time, and why it failed or None."""
    start = time.perf_counter()
    try:
        result = workload.execute(req)
        error = None
    except Exception as exc:  # a failed request is counted, never fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if error is None and check:
        try:
            error = workload.check(req, result)
        except Exception as exc:  # a malformed result fails its check
            error = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, error


def known_wrong(workload, seed: int) -> dict:
    requests = workload.known_wrong(random.Random(f"{workload.name}:{seed}:known-wrong"))
    failures = []
    for req in requests:
        _, error = _attempt(workload, req, check=True)
        if error is not None:
            failures.append({"kind": req.kind, "params": repr(req.params)[:200], "reason": error[:300]})
    return {"attempted": len(requests), "wrong": len(failures), "failures": failures}


def main() -> int:
    args = _arguments()
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import fiblike

    if not Path(fiblike.__file__).resolve().is_relative_to(src):
        print(f"error: fiblike imported from {fiblike.__file__}, not {src}", file=sys.stderr)
        return 2

    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    if args.known_wrong:
        print(json.dumps(known_wrong(workload, args.seed)))
        return 0
    stream = workload.requests(random.Random(f"{args.workload}:{args.seed}"))
    for req in workload.warmup(random.Random(f"{args.workload}:{args.seed}:warmup")):
        workload.execute(req)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = spans.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    latencies, failures = [], []
    attempted = 0
    busy = 0.0
    deadline = time.monotonic() + 2 * args.seconds + 20  # a wall-clock backstop
    while busy < args.seconds and time.monotonic() < deadline:
        if args.max_requests is not None and attempted >= args.max_requests:
            break
        req = next(stream)
        elapsed, error = _attempt(workload, req, check=not args.no_check)
        busy += elapsed
        latencies.append(elapsed * 1e3)
        attempted += 1
        if error is not None:
            failures.append({"request": attempted - 1, "kind": req.kind, "reason": error[:300]})

    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    import mpmath  # only now, so that set-up shows whether fiblike itself loads it

    report = {
        "ready": ready,
        "attempted": attempted,
        "failures": failures,
        "busy_s": busy,
        "latencies_ms": latencies,
        "peak_rss_kib": peak_rss_kib,
        "provenance": {
            "python": sys.version.split()[0],
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "fiblike": getattr(fiblike, "__version__", "unknown"),
        },
    }
    if tracer is not None:
        tracer.remove()
        report["retained_bytes"] = spans.retained_bytes()
        report["trace"] = tracer.summary()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
