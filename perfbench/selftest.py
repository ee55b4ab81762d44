"""Self-test of the benchmark itself.

Runs every workload at a tiny size, untraced and traced, and requires no
failed operation and a consistent trace; checks the bypass pairs the trace
must show; and changes one coefficient of one output to show that each
workload's correctness check then fails.  Run from the root of a checkout:

    python3 perfbench/selftest.py

Exit code 0 when every check holds.
"""

from __future__ import annotations

import re
import sys

import run
import workloads

SEED = 7


def changed_coefficient(results: list[tuple[int, str]]) -> list[tuple[int, str]]:
    """The outputs with exactly one coefficient changed.

    The first coefficient record found gets its numerator raised by one; an
    output without any (a verification whose residuals are all zero) gets a
    constant term 1 in its first residual.
    """
    out = list(results)
    for i, (code, text) in enumerate(out):
        match = re.search(r'"c": "(-?\d+)', text)
        if match:
            bumped = str(int(match.group(1)) + 1)
            out[i] = (code, text[: match.start(1)] + bumped + text[match.end(1):])
            return out
    for i, (code, text) in enumerate(out):
        if '"residual": []' in text:
            one = '"residual": [{"dl": 0, "dx": 0, "c": "1"}]'
            out[i] = (code, text.replace('"residual": []', one, 1))
            return out
    raise ValueError("no output holds a coefficient to change")


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from degenpoly import cli, families

    problems = []
    for name in workloads.WORKLOADS:
        workload = workloads.tiny(name)
        argvs = workload.requests(SEED)

        _, checks, _, _ = run.measure_end_to_end(workload, argvs, 0, cli, families)
        if sum(c.failed for c in checks):
            problems.append(f"{name}: untraced tiny run has failed operations")

        path = run.TRACE_DIR / f"selftest-{name}.json"
        layers, checks, _, consistent = run.measure_traced(
            workload, argvs, 0, cli, families, path
        )
        if sum(c.failed for c in checks):
            problems.append(f"{name}: traced tiny run has failed operations")
        if not consistent:
            problems.append(f"{name}: layer self times do not add up to the traced pass")
        reaches_identities = name == workloads.VerifyFull.name
        if (layers.get("series.compose.calls", 0) > 0) != reaches_identities:
            problems.append(f"{name}: series.compose.calls contradicts the bypass pair")
        touched = [k for k, v in layers.items() if k.startswith("identities.") and v]
        if bool(touched) != reaches_identities:
            problems.append(f"{name}: identities metrics contradict the bypass pair")

        *_, results = run.run_pass(cli, families, argvs, run.HostClock())
        for label, outputs, should_fail in (
            ("unchanged", results, False),
            ("one coefficient changed", changed_coefficient(results), True),
        ):
            check = workload.check_pass(argvs, outputs)
            workload.finish(argvs, [check])
            if (check.failed > 0) != should_fail:
                problems.append(f"{name}: check with {label} output reports "
                                f"{check.failed} failed")
        print(f"{name}: {len(argvs)} requests checked", flush=True)

    for problem in problems:
        print("FAIL " + problem)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
