#!/usr/bin/env python3
"""Regenerate golden.json: key results and output digests of every study of
the default seed's pools, and of the probe study every run warms up on.

    python3 perfbench/make_golden.py

Run it only when a change alters results on purpose, and explain the change
in CHANGES.md. Each output must pass the invariant checks before it is pinned.
"""

import hashlib
import json
import shutil
import sys

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

import opshape.cli  # noqa: E402
import checks  # noqa: E402
import workloads  # noqa: E402


def main():
    validator = checks.report_validator()
    work = run.WORK / "golden"
    golden = {}
    try:
        for wl in workloads.WORKLOADS.values():
            drawn = workloads.generate(wl, workloads.DEFAULT_SEED, smoke=False)
            studies = workloads.write(wl, drawn, work / wl.name, smoke=False)
            entries = {}
            for study in studies:
                target = run.out_target(wl.command, work / wl.name, "out-" + study.key)
                _, error = run.run_op(opshape.cli.main, study.argv, target)
                if error is not None:
                    raise SystemExit(f"{wl.name} {study.key}: {error}")
                data, _ = checks.read_output(wl.command, target)
                problems = checks.check_bytes(wl.command, data, study.expect, None, validator)
                if problems:
                    raise SystemExit(f"{wl.name} {study.key}: {problems}")
                entries[study.key] = {
                    "keys": checks.key_results(wl.command, json.loads(data)),
                    "sha256": hashlib.sha256(data).hexdigest(),
                }
            golden[wl.name] = entries
            print(f"{wl.name}: {len(entries)} studies")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.HERE / "golden.json").write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
