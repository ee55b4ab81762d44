"""The three benchmark workloads: their requests and their correctness checks.

Every workload is a list of ``degenpoly`` CLI argument vectors sent one at a
time through ``degenpoly.cli.run`` (one client, closed loop).  A pass runs
the whole list once from cold caches.  Checks run outside the timed region
and are exact: a byte digest recorded at the commit that defined the
benchmark, or equality with the symbolic-``l`` value after substitution.

Why these three (each roadmap optimization has one workload that exercises
it and one that bypasses it):

* ``verify-full`` is the paper's headline job and the only one that reaches
  ``identities`` and ``EgfSeries.compose``.
* ``tabulate-symbolic`` is dense symbolic polynomials dominated by 32-row
  triangle tables (``--max-n 24`` grows the table through 8, 16 and 32); no
  identity code or ``compose`` runs, so it bypasses changes to either.
* ``numeric-sweep`` is many small requests with large rationals and few
  terms, where argument parsing, JSON rendering and per-lambda triangle
  builds matter and repeated ``(spec, trunc)`` keys hit the series cache.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _canonical(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def output_shape(values: list) -> tuple[int, int]:
    """(term records, largest numerator or denominator bit length) in a values list."""
    terms = 0
    bits = 0
    for row in values:
        for record in row:
            terms += 1
            num, _, den = record["c"].partition("/")
            bits = max(bits, int(num).bit_length(), int(den or "1").bit_length())
    return terms, bits


@dataclass
class PassCheck:
    """What one pass produced, judged outside the timed region."""

    attempted: int = 0
    failed: int = 0
    out_terms: int = 0
    out_max_coeff_bits: int = 0
    # numeric-sweep only: digest of each request's parsed values, compared
    # with the symbolic references after the timed passes end.
    value_digests: list[str | None] = field(default_factory=list)


class Workload:
    """A named request list with a check for one pass of its outputs."""

    name = ""
    op_unit = "requests"

    def requests(self, seed: int) -> list[list[str]]:
        raise NotImplementedError

    def check_pass(self, argvs: list[list[str]], results: list[tuple[int, str]]) -> PassCheck:
        raise NotImplementedError

    def finish(self, argvs: list[list[str]], checks: list[PassCheck]) -> None:
        """Add failures that need work done after the timed passes."""


class VerifyFull(Workload):
    """``verify --identity all``: 15 identities, 979 cases under ``full``."""

    name = "verify-full"
    op_unit = "cases"

    def __init__(self, profile: str = "full"):
        self.profile = profile

    @cached_property
    def expected(self) -> dict:
        return load_expected()["verify-full"][self.profile]

    def requests(self, seed: int) -> list[list[str]]:
        # Fixed input: the seed does not enter.
        return [["verify", "--identity", "all", "--profile", self.profile]]

    def check_pass(self, argvs, results):
        (rc, text), = results
        check = PassCheck()
        try:
            reports = json.loads(text)["reports"]
        except (ValueError, KeyError, TypeError):
            reports = None
        if reports is None:
            check.attempted = check.failed = self.expected["cases"]
            return check
        cases = [case for report in reports for case in report["cases"]]
        bad = sum(1 for case in cases if case["residual"] or case["status"] != "pass")
        check.attempted = len(cases)
        check.out_terms, check.out_max_coeff_bits = output_shape(
            [case["residual"] for case in cases]
        )
        whole_request_ok = rc == 0 and sha256(text) == self.expected["sha256"]
        check.failed = bad if whole_request_ok else max(check.attempted, 1)
        return check


def _cli_flags(family_info, lam: str | None, x: str | None, order: str | None) -> list[str]:
    """Only the flags a family honours, so a stricter CLI accepts the request.

    Negative rationals use the ``--flag=value`` form: argparse reads
    ``--lambda -37/42`` as a missing value.
    """
    flags = []
    if order is not None:
        flags.append(f"--order={order}")
    if lam is not None and family_info.degenerate:
        flags.append(f"--lambda={lam}")
    if x is not None and family_info.takes_argument:
        flags.append(f"--x={x}")
    return flags


class TabulateSymbolic(Workload):
    """One ``compute`` per family and order at symbolic ``l`` and ``x``."""

    name = "tabulate-symbolic"
    op_unit = "requests"

    def __init__(self, max_n: int = 24):
        self.max_n = max_n

    @cached_property
    def expected(self) -> dict:
        return load_expected()["tabulate-symbolic"][str(self.max_n)]

    def requests(self, seed: int) -> list[list[str]]:
        from degenpoly.families import CATALOG, FamilyId

        argvs = []
        for fid in FamilyId:
            info = CATALOG[fid]
            orders: list[str | None] = [None]
            if info.kind == "sequence" and info.order_domain == "rational":
                orders = ["1/2", "3"]
            elif info.kind == "sequence" and info.order_domain == "integer":
                orders = ["2"]
            for order in orders:
                argvs.append(
                    ["compute", "--family", fid.value, "--max-n", str(self.max_n),
                     "--format", "json"]
                    + _cli_flags(info, "symbolic", "symbolic", order)
                )
        # The seed only fixes the order in which the requests are sent.
        random.Random(seed).shuffle(argvs)
        return argvs

    def check_pass(self, argvs, results):
        check = PassCheck(attempted=len(argvs))
        for argv, (rc, text) in zip(argvs, results):
            if rc != 0 or sha256(text) != self.expected.get(" ".join(argv)):
                check.failed += 1
            try:
                values = [row["value"] for row in json.loads(text)["values"]]
            except (ValueError, KeyError, TypeError):
                continue
            terms, bits = output_shape(values)
            check.out_terms += terms
            check.out_max_coeff_bits = max(check.out_max_coeff_bits, bits)
        return check


class NumericSweep(Workload):
    """324 small ``compute`` requests with numeric ``l`` drawn from the seed.

    216 distinct requests cover the degenerate families evenly; half of each
    family's requests are sent again later, so a third of the stream repeats.

    The mix is assumed, not measured: nothing records how the CLI is used.
    The repeat share (1/3), the pool of 8 lambdas and 4 x values, and a
    numeric x on half of the requests are choices of this benchmark.  The
    repeat share caps what a cache can gain here, so a result on this
    workload holds for this mix, not for observed traffic.
    """

    name = "numeric-sweep"
    op_unit = "requests"

    LAMBDAS = 8  # distinct lambdas per seed: each first use builds triangle tables
    XS = 4  # distinct numeric x values

    def __init__(self, n_range: range = range(8, 17), repeats: int = 2):
        self.n_range = n_range
        self.repeats = repeats

    @staticmethod
    def _rationals(rng: random.Random, count: int) -> list[Fraction]:
        # Two-digit numerator and denominator in lowest terms, either sign,
        # so every seed's values are the same size.
        pool: list[Fraction] = []
        while len(pool) < count:
            num, den = rng.randint(10, 99), rng.randint(10, 99)
            q = Fraction(rng.choice((-1, 1)) * num, den)
            if q.denominator == den and q not in pool:
                pool.append(q)
        return pool

    def requests(self, seed: int) -> list[list[str]]:
        from degenpoly.families import CATALOG, FamilyId

        rng = random.Random(seed)
        lambdas = self._rationals(rng, self.LAMBDAS)
        xs = self._rationals(rng, self.XS)
        fresh = []
        # Every degenerate family gets every max-n the same number of times,
        # each order of its domain and each lambda as evenly as the counts
        # allow, and a numeric x on exactly half of its requests, so the mix,
        # and with it the pass time, does not vary by seed.
        for fid in FamilyId:
            info = CATALOG[fid]
            if not info.degenerate:
                continue
            orders: tuple[str | None, ...] = (None,)
            if info.kind == "sequence" and info.order_domain == "rational":
                orders = ("1/2", "3/2", "2")
            elif info.kind == "sequence" and info.order_domain == "integer":
                orders = ("1", "2", "3")
            lams = rng.sample(lambdas, len(lambdas))
            for i, n in enumerate(list(self.n_range) * self.repeats):
                x = str(xs[i % len(xs)]) if i % 2 else None
                fresh.append(
                    ["compute", "--family", fid.value, "--max-n", str(n), "--format", "json"]
                    + _cli_flags(info, str(lams[i % len(lams)]), x, orders[i % len(orders)])
                )
        rng.shuffle(fresh)
        # Half of each family's requests are sent a second time, at a random
        # point after the first.
        keyed = [(float(i), argv) for i, argv in enumerate(fresh)]
        for family in sorted({argv[2] for argv in fresh}):
            own = [i for i, argv in enumerate(fresh) if argv[2] == family]
            for i in rng.sample(own, len(own) // 2):
                keyed.append((rng.uniform(i + 0.5, len(fresh)), fresh[i]))
        return [argv for _, argv in sorted(keyed, key=lambda pair: pair[0])]

    def check_pass(self, argvs, results):
        check = PassCheck(attempted=len(argvs))
        for rc, text in results:
            values = None
            if rc == 0:
                try:
                    values = json.loads(text)["values"]
                except (ValueError, KeyError, TypeError):
                    pass
            if values is None:
                check.failed += 1
                check.value_digests.append(None)
                continue
            terms, bits = output_shape([row["value"] for row in values])
            check.out_terms += terms
            check.out_max_coeff_bits = max(check.out_max_coeff_bits, bits)
            check.value_digests.append(sha256(_canonical(values)))
        return check

    def finish(self, argvs, checks):
        expected = [sha256(_canonical(values)) for values in self.reference_values(argvs)]
        for check in checks:
            check.failed += sum(
                1 for got, want in zip(check.value_digests, expected)
                if got is not None and got != want
            )

    @staticmethod
    def reference_values(argvs: list[list[str]]) -> list[list[dict]]:
        """Each request's values from symbolic ``l`` (and ``x``), then substituted.

        Exact equality with these does not depend on the seed.  The symbolic
        series and tables are built once per family and order.
        """
        from degenpoly.families import (
            CATALOG, FamilyId, FamilySpec, LambdaMode, build_egf, triangular_numbers,
        )

        def flag(argv: list[str], name: str) -> str:
            return argv[argv.index(name) + 1]

        trunc = max(int(flag(argv, "--max-n")) for argv in argvs)
        symbolic_series = {}
        out = []
        for argv in argvs:
            fid = FamilyId(flag(argv, "--family"))
            max_n = int(flag(argv, "--max-n"))
            opts = dict(arg[2:].split("=", 1) for arg in argv if "=" in arg)
            lam = Fraction(opts["lambda"])
            x = Fraction(opts["x"]) if "x" in opts else None
            order = Fraction(opts.get("order", "1"))
            if CATALOG[fid].kind == "triangle":
                symbolic = LambdaMode.symbolic()
                rows = [
                    {"n": n, "k": k,
                     "value": triangular_numbers(fid, n, k, symbolic).subs_lam(lam).to_records()}
                    for n in range(max_n + 1) for k in range(n + 1)
                ]
            else:
                key = (fid, order)
                if key not in symbolic_series:
                    symbolic_series[key] = build_egf(FamilySpec(fid, order), trunc)
                series = symbolic_series[key]
                rows = []
                for n in range(max_n + 1):
                    value = series.value(n).subs_lam(lam)
                    if x is not None:
                        value = value.subs_x(x)
                    rows.append({"n": n, "value": value.to_records()})
            out.append(rows)
        return out


WORKLOADS = {w.name: w for w in (VerifyFull, TabulateSymbolic, NumericSweep)}


def tiny(name: str) -> Workload:
    """The workload at a size small enough for the self-test."""
    if name == VerifyFull.name:
        return VerifyFull("quick")
    if name == TabulateSymbolic.name:
        return TabulateSymbolic(6)
    return NumericSweep(range(3, 5), 1)
