"""Print every metric of every workload, one ``workload metric value unit`` line each.

    python3 certbench/report.py

Run from the root of a checkout.  For each workload it runs ``run.py`` on the
default seed for ``run_seconds`` from ``BENCHMARK.json``, once untraced (the
end-to-end metrics, plus error_rate and the tail percentile from the
environment record) and once traced (the per-layer metrics).
"""

import json
import os
import subprocess
import sys

import workloads

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def main() -> int:
    with open("BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]
    status = 0
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, RUN, "--workload", workload, "--seed", str(workloads.DEFAULT_SEED),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True)
            if done.returncode != 0:
                sys.stderr.write(done.stderr)
                return done.returncode
            env_line, result_line = done.stdout.splitlines()[-2:]
            env = json.loads(env_line)["environment"]
            result = json.loads(result_line)
            status = status or (0 if result["correct"] else 4)
            print(f"{workload} correct {result['correct']} (attempted {result['attempted']}, failed {result['failed']})")
            print(f"{workload} error_rate {env['error_rate']} ratio")
            if trace == 0:
                print(f"{workload} cert_tail_percentile {env['cert_tail_percentile']:.2f} "
                      f"(first {env['cert_tail_rounds']} rounds, samples beyond "
                      f"{env['cert_tail_samples_beyond']}; {env['cert_tail_rule']})")
            for name, metric in result["metrics"].items():
                print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
