"""One pass of a workload in a fresh interpreter, driven through ``mcg_spinlab.cli.main``.

Closed loop: one client sends the next request when the last one returns.
The catalog caches of ``mcg_spinlab.constructions`` are neither cleared nor
pre-filled, so the first request at each genus pays the catalog build.

Prints ``ready`` once the package is imported and the inputs are generated,
then (unless ``--setup-only``) one JSON line with the per-request records.
Run it from the root of an mcg-spinlab checkout; ``run.py`` is the entry point.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
from time import perf_counter

import workloads

ROOT = os.getcwd()
SCRATCH = os.path.join(ROOT, ".certbench")


def import_cli():
    """Import ``mcg_spinlab.cli`` from this checkout's ``src`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import mcg_spinlab.cli as cli

    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise ImportError(f"mcg_spinlab imported from {cli.__file__}, not from {src}")
    return cli


def load_reference(workload: str):
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference", f"{workload}.json")
    with open(path) as fh:
        return json.load(fh)["digests"]


def run_request(main, argv, tracer=None, request_id=0) -> tuple:
    """Call ``main(argv)`` with stdout and stderr captured; returns (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.request(request_id) if tracer is not None else contextlib.nullcontext()
    start = perf_counter()
    with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is a failed certificate, not a benchmark crash
            rc = f"exception {type(exc).__name__}: {exc}"
    return perf_counter() - start, rc, out.getvalue()


def run_pass(cli, rounds, seconds=None, round_limit=None, reference=None, tracer=None,
             min_rounds=1) -> list[dict]:
    """Issue whole rounds until ``seconds`` have passed and at least ``min_rounds``
    rounds are done, or until ``round_limit`` rounds are done."""
    inputs = os.path.join(SCRATCH, f"inputs-{os.getpid()}")
    os.makedirs(inputs, exist_ok=True)
    records = []
    try:
        start = perf_counter()

        def more(r):
            if round_limit is not None:
                return r < round_limit
            return r < min_rounds or perf_counter() - start < seconds

        r = 0
        while more(r):
            for j, request in enumerate(rounds[r % len(rounds)]):
                path = None
                if request.presentation:
                    path = os.path.join(inputs, f"p{j}.txt")
                    with open(path, "w") as fh:
                        fh.write(request.presentation)
                elapsed, rc, out = run_request(cli.main, request.argv(path), tracer, len(records))
                reason = workloads.check(request, rc, out)
                got = workloads.digest(out)
                if reason is None and reference is not None and got != reference[r % len(rounds)][j]:
                    reason = "certificate bytes differ from the default-seed reference"
                records.append({"s": elapsed, "round": r, "failure": reason,
                                "digest": got, "bytes": len(out.encode())})
            r += 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    return records


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--rounds", type=int, help="issue exactly this many rounds instead of a timed pass")
    ap.add_argument("--min-rounds", type=int, default=1, help="a timed pass issues at least this many rounds")
    ap.add_argument("--trace", action="store_true", help="record layer spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli = import_cli()
    rounds = workloads.stream(args.workload, args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    reference = load_reference(args.workload) if args.seed == workloads.DEFAULT_SEED else None
    result = {}
    if args.trace:
        import tracing

        with tracing.Tracer() as tracer:
            records = run_pass(cli, rounds, args.seconds, args.rounds, reference, tracer, args.min_rounds)
        layers = tracer.metrics()
        layers["cli.main.output_bytes"] = sum(r["bytes"] for r in records)
        result["layers"] = layers
        os.makedirs(SCRATCH, exist_ok=True)
        tracer.write_spans(os.path.join(SCRATCH, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        records = run_pass(cli, rounds, args.seconds, args.rounds, reference, min_rounds=args.min_rounds)
    result["records"] = records
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
