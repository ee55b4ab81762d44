"""Span tracing of the degenpoly layers from outside the package.

``install`` wraps the public functions of ``cli``, ``identities``,
``families``, ``series`` and ``bipoly`` on every name a caller binds (the
modules import ``build_egf``, ``triangular_numbers`` and ``verify`` by name;
``BiPoly.__rmul__`` and ``__radd__`` are their own class attributes) and
returns a function that puts the originals back.  Nothing under ``src/``
changes.

Spans (name, start, end, parent, request id) are kept in memory.  ``BiPoly``
calls are far too many for one span each (a full verification makes about
160k), so they are aggregated per enclosing span: calls, self time and, for
multiplication, the term pairs ``|a| * |b|``.

Time spent in an unwrapped function is booked as self time of the span that
called it.  The run's self-sum check (layer self times against the traced
pass time) therefore tests the aggregation and the benchmark loop's own
overhead, not whether every layer's functions are wrapped: the lists below
name every public arithmetic, substitution and serialization method.
"""

from __future__ import annotations

import time
from collections import defaultdict

SERIES_OPS = {
    "__mul__": "mul", "divide": "divide", "pow": "pow", "compose": "compose",
    "exp": "exp", "log": "log", "scale": "scale", "value": "value",
    "__add__": "add", "__sub__": "add", "__neg__": "add", "add_constant": "add",
    "shift_div_t": "shift", "truncate": "shift",
}
BIPOLY_GROUPS = {
    "mul": ("__mul__", "__rmul__"),
    "add": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__"),
    "subs": ("subs_lam", "scale_lam", "shift_lam", "shift_x", "scale_x", "subs_x",
             "subs_x_poly", "div_lam"),
    "serialize": ("to_records", "render"),
    "other": ("__pow__", "__eq__", "evaluate"),
}
FAMILIES_OTHER = (
    "classical_value", "central_factorial_power", "falling_factorial",
    "deg_falling_factorial", "deg_bernoulli2_alt_egf",
)


class Tracer:
    """In-memory spans and counters for one traced pass at a time."""

    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float, float]] = []
        # (enclosing span id, group) -> [calls, self seconds, term pairs]
        self.bipoly: dict[tuple[int, str], list] = defaultdict(lambda: [0, 0.0, 0])
        self.build_keys: set = set()
        self.build_repeats = 0
        self.triangle_keys: set = set()
        self.request = 0
        # Each frame is [span id, seconds covered by its children].
        self._stack: list[list] = [[0, 0.0]]
        self._next_id = 1

    def reset(self) -> None:
        self.spans.clear()
        self.bipoly.clear()
        self.build_keys.clear()
        self.build_repeats = 0
        self.triangle_keys.clear()
        self.request = 0
        self._stack[:] = [[0, 0.0]]
        self._next_id = 1

    def span(self, name, fn, on_enter=None):
        """Wrap ``fn`` so each call records one span; ``name`` may be a function of the args."""
        tracer, stack, spans, clock = self, self._stack, self.spans, time.perf_counter

        def wrapper(*args, **kwargs):
            if on_enter is not None:
                on_enter(args, kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1]
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[1] += end - start
                label = name(args) if callable(name) else name
                spans.append((sid, parent[0], tracer.request, label, start, end, frame[1]))

        return wrapper

    def counted(self, group, fn, pairs=None):
        """Wrap a BiPoly method: calls and self time go to the enclosing span.

        ``pairs``, if given, maps the call's arguments to its term pairs.
        """
        stack, totals, clock = self._stack, self.bipoly, time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [parent[0], 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                entry = totals[(frame[0], group)]
                entry[0] += 1
                entry[1] += elapsed - frame[1]
                if pairs is not None:
                    entry[2] += pairs(args)

        return wrapper


def install(tracer: Tracer):
    """Wrap every traced name in place; return a function that undoes it."""
    import degenpoly
    from degenpoly import bipoly, cli, families, identities, series

    modules = (degenpoly, cli, identities, families, series, bipoly)
    undo: list[tuple[object, str, object]] = []

    def patch_function(home, name, wrap):
        original = home.__dict__.get(name)
        if original is None:
            return
        wrapped = wrap(original)
        for module in modules:
            if module.__dict__.get(name) is original:
                setattr(module, name, wrapped)
                undo.append((module, name, original))

    def patch_method(cls, name, wrap):
        original = cls.__dict__.get(name)
        if original is None:
            return
        setattr(cls, name, wrap(original))
        undo.append((cls, name, original))

    def new_request(args, kwargs):
        tracer.request += 1

    def build_key(args, kwargs):
        key = (args, tuple(sorted(kwargs.items())))
        if key in tracer.build_keys:
            tracer.build_repeats += 1
        tracer.build_keys.add(key)

    default_mode = families.LambdaMode()

    def triangle_key(args, kwargs):
        family, n, k = args[:3]
        if 0 <= k <= n:
            mode = args[3] if len(args) > 3 else kwargs.get("lambda_mode", default_mode)
            tracer.triangle_keys.add((family, mode))

    def term_count(value) -> int:
        if isinstance(value, bipoly.BiPoly):
            terms = getattr(value, "_terms", None)
            return len(terms) if terms is not None else len(value.terms())
        return 1 if value else 0

    def term_pairs(args):
        return term_count(args[0]) * term_count(args[1])

    def identity_name(args):
        return "identities.verify." + getattr(args[0], "value", str(args[0]))

    patch_function(cli, "run", lambda f: tracer.span("cli.run", f, new_request))
    patch_function(identities, "verify", lambda f: tracer.span(identity_name, f))
    patch_function(
        families, "build_egf", lambda f: tracer.span("families.build_egf", f, build_key)
    )
    patch_function(
        families, "triangular_numbers",
        lambda f: tracer.span("families.triangular_numbers", f, triangle_key),
    )
    for name in FAMILIES_OTHER:
        patch_function(families, name, lambda f: tracer.span("families.other", f))
    for attr, op in SERIES_OPS.items():
        patch_method(series.EgfSeries, attr, lambda f, op=op: tracer.span("series." + op, f))
    for group, attrs in BIPOLY_GROUPS.items():
        for attr in attrs:
            patch_method(
                bipoly.BiPoly, attr,
                lambda f, g=group: tracer.counted(g, f, term_pairs if g == "mul" else None),
            )

    def restore():
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return restore


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and times of the pass the tracer just recorded."""
    m: dict[str, float] = defaultdict(float)
    names = {sid: name for sid, _, _, name, _, _, _ in tracer.spans}
    self_by_layer: dict[str, float] = defaultdict(float)
    for sid, parent, _, name, start, end, child in tracer.spans:
        incl = end - start
        self_by_layer[name.split(".", 1)[0]] += incl - child
        if name == "cli.run":
            m["cli.run.calls"] += 1
        elif name.startswith("series."):
            m[name + ".calls"] += 1
            m[name + ".incl_s"] += incl
        elif name == "families.other":
            m["families.other.incl_s"] += incl
        elif name.startswith("families."):
            m[name + ".calls"] += 1
            m[name + ".incl_s"] += incl
        elif name.startswith("identities.verify."):
            m[name + ".incl_s"] += incl
            m["identities.assembly_s"] += incl
        parent_name = names.get(parent, "")
        if parent_name.startswith("identities.verify."):
            # Phase split of a verification: what its direct children into
            # families and series cost; assembly is the rest of the span.
            if name == "families.triangular_numbers":
                m["identities.triangle_s"] += incl
            elif name.startswith("families."):
                m["identities.build_s"] += incl
            elif name == "series.compose":
                m["identities.compose_s"] += incl
            if name.startswith(("families.", "series.")):
                m["identities.assembly_s"] -= incl
    for (_, group), (calls, self_s, pairs) in tracer.bipoly.items():
        m[f"bipoly.{group}.self_s"] += self_s
        self_by_layer["bipoly"] += self_s
        if group in ("mul", "add"):
            m[f"bipoly.{group}.calls"] += calls
        if group == "mul":
            m["bipoly.mul.term_pairs"] += pairs
    for layer in ("cli", "identities", "families", "series"):
        m[f"{layer}.self_s"] += self_by_layer[layer]
    m["trace.self_sum_s"] = sum(self_by_layer.values())
    builds = m["families.build_egf.calls"]
    m["families.build_egf.repeat_share"] = tracer.build_repeats / builds if builds else 0.0
    m["families.triangle.tables"] = len(tracer.triangle_keys)
    return m


def dump(tracer: Tracer, origin: float) -> dict:
    """The recorded pass as plain data, times in seconds from ``origin``."""
    return {
        "spans": [
            [sid, parent, request, name, round(start - origin, 7), round(end - origin, 7)]
            for sid, parent, request, name, start, end, _ in tracer.spans
        ],
        "bipoly": [
            [sid, group, calls, round(self_s, 7), pairs]
            for (sid, group), (calls, self_s, pairs) in sorted(tracer.bipoly.items())
        ],
    }
