"""Per-layer micro-benchmarks of degenpoly at fixed sizes.

Run from the root of a checkout, naming another checkout to compare with:

    python3 bench/micro.py --baseline PATH/TO/OTHER/CHECKOUT --out micro.json

At N = 16 and 32, with symbolic l and x, it times one ``BiPoly`` product
(coefficient N of the order-2 ``type2-deg-bernoulli2`` EGF times
coefficient N of e_l^x(t)), that coefficient times N! and times 1/N!
(``bipoly.scale``), the series product of those two EGFs, their
quotient as ``f * g.pow(-1)`` (``series.inverse``), ``pow(-2)`` and
``pow(1/2)`` of log_l(1+t)/t, the composition e_l^x(log_l(1+t)), a cold
32-row ``deg-central-factorial`` table, and
``compute --family deg-bernoulli2 --order 3 --max-n N --format json``
through ``cli.run`` into a ``StringIO`` with warm caches (``cli.compute_json``).
Inputs are built, and caches warmed, before timing, with the timed tree's
own code.

Each checkout is timed in its own child process that imports its ``src/``,
first the baseline and then this checkout, ``REPEAT`` times per entry.
The JSON records the Python version, each checkout's git revision, the
median and minimum seconds of each entry, the baseline-to-current ratio of
the medians, and whether both checkouts produced the same result.  This
script is not part of the test suite.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (16, 32)
REPEAT = 5  # timed runs per entry
TABLE_ROWS = 32


def _digest(value) -> str:
    from degenpoly.series import EgfSeries

    if isinstance(value, str):
        return hashlib.sha256(value.encode()).hexdigest()
    if isinstance(value, EgfSeries):
        polys = value.coefficients
    else:
        polys = value if isinstance(value, tuple) else (value,)
    text = json.dumps([p.to_records() for p in polys])
    return hashlib.sha256(text.encode()).hexdigest()


def _cases():
    """(name, thunk) pairs; the inputs are built here, outside the timed region."""
    import contextlib
    import io
    from fractions import Fraction

    from degenpoly import cli, families
    from degenpoly.families import FamilyId, FamilySpec, build_egf

    def compute_json(n):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli.run(["compute", "--family", "deg-bernoulli2", "--order", "3",
                     "--max-n", str(n), "--format", "json"])
        return out.getvalue()

    cases = []
    for n in SIZES:
        compute_json(n)  # warms the series cache
        bern = build_egf(FamilySpec(FamilyId.TYPE2_DEG_BERNOULLI2, Fraction(2)), n)
        exp_x = build_egf(FamilySpec(FamilyId.DEG_EXP), n)
        log_l = build_egf(FamilySpec(FamilyId.DEG_LOG), n + 1)
        kernel = log_l.shift_div_t()  # log_l(1+t)/t, constant term 1
        a, b = bern.coefficient(n), exp_x.coefficient(n)
        fact = Fraction(math.factorial(n))
        cases += [
            (f"bipoly.mul.N{n}", lambda a=a, b=b: a * b),
            (f"bipoly.scale.N{n}", lambda a=a, c=fact, r=1 / fact: (a * c, a * r)),
            (f"series.mul.N{n}", lambda f=bern, g=exp_x: f * g),
            (f"series.inverse.N{n}", lambda f=bern, g=exp_x: f * g.pow(-1)),
            (f"series.pow_-2.N{n}", lambda k=kernel: k.pow(-2)),
            (f"series.pow_1/2.N{n}", lambda k=kernel: k.pow(Fraction(1, 2))),
            (f"series.compose.N{n}", lambda f=exp_x, g=log_l: f.compose(g)),
            (f"cli.compute_json.N{n}", lambda n=n: compute_json(n)),
        ]

    def cold_table():
        families.clear_caches()
        return families.triangular_numbers(
            FamilyId.DEG_CENTRAL_FACTORIAL, TABLE_ROWS, TABLE_ROWS // 2
        )

    cases.append((f"families.triangle.deg-central-factorial.rows{TABLE_ROWS}", cold_table))
    return cases


def child(src: str) -> dict:
    """Time every entry against the package under ``src``."""
    sys.path.insert(0, src)
    out = {}
    for name, thunk in _cases():
        times = []
        for _ in range(REPEAT):
            start = time.perf_counter()
            result = thunk()
            times.append(time.perf_counter() - start)
        out[name] = {
            "median_s": statistics.median(times),
            "min_s": min(times),
            "result_sha256": _digest(result),
        }
    return out


def _revision(root: Path) -> str:
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "none"
    return proc.stdout.strip()


def _run_child(root: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, __file__, "--child", str(root / "src")],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    return json.loads(proc.stdout)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", type=Path, help="checkout to compare with")
    parser.add_argument("--out", type=Path, help="JSON file to write")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        json.dump(child(args.child), sys.stdout)
        return
    if args.baseline is None or args.out is None:
        parser.error("--baseline and --out are required")

    trees = {"baseline": args.baseline.resolve(), "current": ROOT}
    timings = {label: _run_child(root) for label, root in trees.items()}
    entries = {}
    for name, cur in timings["current"].items():
        base = timings["baseline"][name]
        entries[name] = {
            "baseline": {"median_s": base["median_s"], "min_s": base["min_s"]},
            "current": {"median_s": cur["median_s"], "min_s": cur["min_s"]},
            "speedup_median": base["median_s"] / cur["median_s"],
            "same_result": base["result_sha256"] == cur["result_sha256"],
        }
    record = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "revisions": {label: _revision(root) for label, root in trees.items()},
        "repeat": REPEAT,
        "sizes": list(SIZES),
        "entries": entries,
    }
    args.out.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for name, e in entries.items():
        print(f"{name:<48} {e['baseline']['median_s']:9.4f} -> {e['current']['median_s']:9.4f} s"
              f"  x{e['speedup_median']:.1f}  same={e['same_result']}")


if __name__ == "__main__":
    main()
