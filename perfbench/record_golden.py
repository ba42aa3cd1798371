"""Record the golden report rows that cli_mc's output checks compare against.

Run from the root of a checkout, once, at the commit whose behaviour is to
be frozen::

    python3 perfbench/record_golden.py

It runs one pass of the cli_mc jobs for every seeded variant and writes
``perfbench/golden_cli_mc.json``. Re-recording replaces the reference, so a
change that alters study output must justify the new rows on its own.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    blockcalc = run.load_blockcalc()
    if blockcalc is None:
        return 2

    variants = {}
    work_dir = run.OUT / "record_golden"
    try:
        for variant in range(workloads.GOLDEN_VARIANTS):
            plan = workloads.setup_cli_mc(blockcalc, variant, work_dir / str(variant), check_golden=False)
            reports = variants[str(variant)] = {}
            for job in plan.jobs:
                errors = job.check(job.run())
                if errors:
                    print("; ".join(errors), file=sys.stderr)
                    return 1
                columns, rows = workloads.read_report(job.report)
                reports[job.name] = {"columns": columns, "rows": rows}
            print(f"variant {variant} recorded", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump({"variants": variants}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
