"""Record the output digests that the benchmark's checks compare against.

Run from the root of a checkout whose output is known to be right (every
identity passes), after a change that is meant to alter the output:

    python3 perfbench/record.py

It rewrites ``perfbench/expected.json``.  ``numeric-sweep`` needs no record:
it is checked against symbolic values substituted at check time.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from degenpoly import cli, families

    expected: dict[str, dict] = {"verify-full": {}, "tabulate-symbolic": {}}
    for profile in ("full", "quick"):
        workload = workloads.VerifyFull(profile)
        *_, results = run.run_pass(cli, families, workload.requests(0), run.HostClock())
        (code, text), = results
        report = json.loads(text)
        if code != 0 or not report["all_pass"]:
            print(f"error: verify under {profile} does not pass; nothing recorded",
                  file=sys.stderr)
            return 1
        cases = sum(len(r["cases"]) for r in report["reports"])
        expected["verify-full"][profile] = {"sha256": workloads.sha256(text), "cases": cases}
    for max_n in (24, 6):
        workload = workloads.TabulateSymbolic(max_n)
        argvs = sorted(workload.requests(0))
        *_, results = run.run_pass(cli, families, argvs, run.HostClock())
        digests = {}
        for argv, (code, text) in zip(argvs, results):
            if code != 0:
                print(f"error: {' '.join(argv)} exited {code}; nothing recorded",
                      file=sys.stderr)
                return 1
            digests[" ".join(argv)] = workloads.sha256(text)
        expected["tabulate-symbolic"][str(max_n)] = digests
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(expected, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
