"""Regenerate expected/<workload>.json: (exit code, sha256 of stdout) for
every request in a workload's pool.

Each answer is stored only after oracles.check accepts it, so every stored
hash is backed by brute force, a witness replay or a known catalog fact.
Run it when a change to gmetrix alters output bytes on purpose:

    python3 bench/make_expected.py tables functions suite
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import harness
import oracles
import workloads


def build(workload: str, main, doc_dir: str) -> tuple[dict, list]:
    answers, problems = {}, []
    for key, argv, doc in workloads.POOLS[workload]():
        path = workloads.write_document(doc_dir, doc) if doc else None
        rc, stdout, _, _ = harness.execute(main, harness.resolve(argv, path))
        found = oracles.check(key, argv, rc, harness.parse_stdout(stdout))
        problems.extend(f"{key}: {p}" for p in found)
        answers[key] = [rc, harness.digest(stdout)]
    return answers, problems


def main(names) -> int:
    cli = harness.import_cli()
    doc_dir = os.path.join(harness.WORK_DIR, f"expected-{os.getpid()}")
    os.makedirs(doc_dir, exist_ok=True)
    status = 0
    try:
        for name in names:
            start = time.perf_counter()
            answers, problems = build(name, cli.main, doc_dir)
            for line in problems:
                print(line, file=sys.stderr)
            print(f"{name}: {len(answers)} requests, {len(problems)} problems,"
                  f" {time.perf_counter() - start:.0f} s", file=sys.stderr)
            if problems:
                status = 1
                continue
            path = os.path.join(workloads.EXPECTED_DIR, f"{name}.json")
            lines = [f"{json.dumps(key)}: {json.dumps(answers[key])}"
                     for key in sorted(answers)]
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("{\n" + ",\n".join(lines) + "\n}\n")
    finally:
        shutil.rmtree(doc_dir, ignore_errors=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or list(workloads.POOLS)))
