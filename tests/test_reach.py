"""Reach: the ``src/`` functions that no CLI request runs.

Every request starts a fresh process, and that process compiles every
function on the CLI's import path, so a function that no request runs still
costs every request its compile time.  The test runs a fixed list of
requests through ``cli.run`` under the stdlib ``trace`` module, in a fresh
interpreter (no cache that another test filled can hide a builder), and pins
the functions none of whose body lines ran.  A function that falls out of
the CLI's reach fails here until it is deleted or allowlisted with a reason.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

from degenpoly import cli
from degenpoly.families import CATALOG, FamilyId

# A fresh interpreter: the CLI is imported untraced, as a process starts; the
# first verify request imports the verification suite under the trace.  Prints
# the exit codes and, per file of the package, the line numbers that ran.
TRACED_REQUESTS = """\
import contextlib, io, json, os, sys, trace
sys.path.insert(0, sys.argv[1])
import degenpoly.cli
requests = json.loads(sys.stdin.read())
tracer = trace.Trace(count=1, trace=0)
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [tracer.runfunc(degenpoly.cli.run, argv) for argv in requests]
package = os.path.dirname(degenpoly.cli.__file__)
ran = {}
for path, line in tracer.results().counts:
    if os.path.dirname(path) == package:
        ran.setdefault(os.path.basename(path), []).append(line)
print(json.dumps({"codes": codes, "ran": ran}))
"""

#: Functions that no CLI request runs, each with the reason it stays.
ALLOWED_UNREACHED = {
    "degenpoly.__getattr__": "library API: `from degenpoly import verify` loads the suite on first access",
    "bipoly.BiPoly.__init__": "library API: README's term-map constructor; the recipes build from keys",
    "bipoly.BiPoly.terms": "library API: README's coefficients read back as Fractions keyed by (dl, dx)",
    "bipoly.BiPoly.__rsub__": "library API: `scalar - poly`; no recipe subtracts a polynomial from a scalar",
    "bipoly.BiPoly.subs_x": "library API; perfbench's numeric-sweep exactness check reads it",
    "bipoly.BiPoly.to_records": "the JSON record form the CLI's writer is tested against",
    "bipoly.BiPoly.__str__": "interactive display",
    "bipoly.BiPoly.__repr__": "interactive display",
    "cli.main": "the console-script entry, a wrapper of run",
    "families.triangular_numbers": "library API; perfbench's tabulate workload reads entries through it",
    "families.clear_caches": "benchmarks and tests time passes from cold caches",
    "families.Param._make": "makes _replace validate its new field",
    "families.FamilySpec._make": "makes _replace validate its new field",
    "series.EgfSeries.__eq__": "library API: series compare by value",
    "series.EgfSeries.__repr__": "interactive display",
}


#: Requests that exit 2: a size bound, a flag the family ignores, a library
#: refusal, an unbounded literal and four verify usage errors.
REFUSALS = [
    ["compute", "--family", "deg-exp", "--max-n", "65"],
    ["compute", "--family", "euler", "--max-n", "2", "--order", "2"],
    ["compute", "--family", "type2-deg-bernoulli2", "--max-n", "2", "--order", "1/2"],
    ["compute", "--family", "deg-exp", "--max-n", "2", "--lambda", "1e999999999"],
    ["verify", "--identity", "bogus"],
    ["verify", "--identity", "eq23", "--timings", "--format", "csv"],
    ["verify", "--identity", "all", "--max-n", "2"],
    ["verify", "--identity", "eq23", "--trunc", "4"],
]


def _requests(output: Path) -> list[list[str]]:
    """Every family symbolic and at numeric parameters in both formats, both
    quick suites, single identities, help and the catalog."""
    requests = [["--help"], ["compute", "--help"], ["verify", "--help"], ["list-families"]]
    for fid in FamilyId:
        info = CATALOG[fid]
        base = ["compute", "--family", fid.value, "--max-n", "5"]
        numeric = list(base)
        if info.kind == "sequence" and info.order_domain != "none":
            numeric.append("--order=2")
        if info.takes_argument:
            numeric.append("--x=5/3")
        if info.degenerate:
            numeric.append("--lambda=-37/42")
        for argv in (base, numeric):
            requests += [argv, argv + ["--format", "csv"]]
    requests += [
        ["verify", "--identity", "all", "--profile", "quick"],
        ["verify", "--identity", "all", "--profile", "quick", "--format", "csv"],
        ["verify", "--identity", "thm3", "--max-n", "3", "--order", "2", "--timings"],
        ["verify", "--identity", "eq23", "--max-n", "2", "--output", str(output)],
    ]
    return requests


def _unreached(source: str, ran: set[int], module: str) -> list[str]:
    """Qualified names of the functions in ``source`` none of whose body lines ran."""
    names = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.FunctionDef):
                body = child.body
                if len(body) > 1 and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                    body = body[1:]  # a docstring runs no line
                if ran.isdisjoint(range(body[0].lineno, child.end_lineno + 1)):
                    names.append(f"{module}.{prefix}{child.name}")
                walk(child, f"{prefix}{child.name}.<locals>.")

    walk(ast.parse(source), "")
    return names


def test_functions_no_cli_request_runs_are_allowlisted(tmp_path):
    requests = _requests(tmp_path / "report.json") + REFUSALS
    package = Path(cli.__file__).parent
    done = subprocess.run(
        [sys.executable, "-c", TRACED_REQUESTS, str(package.parent)],
        input=json.dumps(requests), capture_output=True, text=True, check=True, timeout=300,
    )
    result = json.loads(done.stdout)
    assert result["codes"] == [0] * (len(requests) - len(REFUSALS)) + [2] * len(REFUSALS)
    unreached = []
    for path in sorted(package.glob("*.py")):
        module = "degenpoly" if path.stem == "__init__" else path.stem
        ran = set(result["ran"].get(path.name, ()))
        unreached += _unreached(path.read_text(encoding="utf-8"), ran, module)
    assert set(unreached) == set(ALLOWED_UNREACHED)
