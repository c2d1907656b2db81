"""Per-layer tracing for the benchmark's traced runs.

The tracer wraps public functions and methods of each vvmf module from the
outside, records one span per call (name, start, end, parent, run id) in
memory, and writes the spans out when the traced command ends.  A traced
run makes about 2 * 10^5 wrapped calls at most (cyclo-det), so one tuple
per call costs a few tens of MB in the traced child.  The tracer's own cost is
estimated in the child too: a calibration loop gives the wrapper's cost
per call, which is multiplied by the number of spans, and the time spent in
the counting probes is added.

Run as a script it is the traced child process:

    PYTHONPATH=src python3 perfbench/tracing.py SPANS.json RUN_ID RSS_FILE -- VVMF_ARGS...

which runs ``vvmf.cli.main(VVMF_ARGS)`` under the tracer, restores every
wrapped attribute, writes the spans, and exits with the command's exit
code; like cli_child.py it writes its peak resident memory to RSS_FILE.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# (module, attribute, span name).  "Class.method" wraps a method on the class;
# a module function is replaced wherever a vvmf module imported it by name.
# Spans are named "<layer>.<operation>"; the layer is the vvmf module.
TARGETS = (
    ("vvmf.exactfield", "CycNumber.__mul__", "exactfield.mul"),
    ("vvmf.exactfield", "CycNumber.__rmul__", "exactfield.mul"),
    ("vvmf.exactfield", "CycNumber.__add__", "exactfield.add"),
    ("vvmf.exactfield", "CycNumber.__radd__", "exactfield.add"),
    ("vvmf.exactfield", "CycNumber.__sub__", "exactfield.add"),
    ("vvmf.exactfield", "CycNumber.inverse", "exactfield.inverse"),
    ("vvmf.qseries", "QSeries.__mul__", "qseries.mul"),
    ("vvmf.qseries", "QSeries.__rmul__", "qseries.mul"),
    ("vvmf.qseries", "QSeries.__truediv__", "qseries.div"),
    ("vvmf.qseries", "QSeries.inverse", "qseries.div"),
    ("vvmf.qseries", "QSeries.__pow__", "qseries.pow"),
    ("vvmf.qseries", "QSeries.__add__", "qseries.add"),
    ("vvmf.qseries", "QSeries.__radd__", "qseries.add"),
    ("vvmf.qseries", "QSeries.__sub__", "qseries.add"),
    ("vvmf.qseries", "QSeries.__rsub__", "qseries.add"),
    ("vvmf.qseries", "QSeries.agrees_with", "qseries.compare"),
    ("vvmf.scalarforms", "eisenstein", "scalarforms.build"),
    ("vvmf.scalarforms", "eta_squared", "scalarforms.build"),
    ("vvmf.scalarforms", "hauptmodul", "scalarforms.build"),
    ("vvmf.scalarforms", "gen_form", "scalarforms.build"),
    ("vvmf.scalarforms", "named_form", "scalarforms.build"),
    ("vvmf.scalarforms", "discriminant", "scalarforms.discriminant"),
    ("vvmf.replib", "load_rep", "replib.load"),
    ("vvmf.replib", "make_rep", "replib.load"),
    ("vvmf.replib", "traces", "replib.traces"),
    ("vvmf.replib", "multiplicities", "replib.multiplicities"),
    ("vvmf.replib", "t_is_semisimple", "replib.semisimple"),
    ("vvmf.weightcalc", "enumerate_weight_multisets", "weightcalc.enumerate"),
    ("vvmf.weightcalc", "weight_profile", "weightcalc.profile"),
    ("vvmf.detlab", "exterior_product", "detlab.exterior"),
    ("vvmf.detlab", "det_zero", "detlab.formula"),
    ("vvmf.detlab", "det_n", "detlab.formula"),
    ("vvmf.detlab", "weak_generating_set", "detlab.weak_set"),
    ("vvmf.suites", "run_suite", "suites.run"),
    ("vvmf.cli", "main", "cli.main"),
    ("vvmf.cli", "_emit", "cli.write"),
)

# lru_cache'd public constructors whose cache_info() is read at exit.
CACHED = ("eisenstein", "discriminant", "eta_squared", "hauptmodul", "gen_form")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    """Wraps callables with span recording and restores them afterwards."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []       # (id, name, start, end, parent)
        self.counts: Counter = Counter()
        self.probe_s = 0.0                 # time spent in probes, inside spans
        self._stack: list[int] = []        # ids of the open spans
        self._patched: list[tuple] = []    # (owner, attribute, original)

    def wrap(self, fn, name: str, probe=None):
        """A callable that runs ``fn`` inside a span named ``name``.

        ``probe(counts, args, result)`` runs inside the span after a
        successful call and adds to the tracer's counters.
        """
        stack, spans, counts = self._stack, self.spans, self.counts
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    probe_start = clock()
                    probe(counts, args, result)
                    self.probe_s += clock() - probe_start
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, start, end, parent))

        traced.perfbench_span = name
        return traced

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every target; module functions are replaced in every loaded
        vvmf module that holds the same object, so ``from x import f``
        callers are traced too."""
        probes = layer_probes()
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "vvmf" or n.startswith("vvmf.")) and m is not None]
        for module_name, attr, span in TARGETS:
            module = importlib.import_module(module_name)
            probe = probes.get(span)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                self.patch(cls, meth, self.wrap(cls.__dict__[meth], span, probe))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(original, span, probe)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self.patch(mod, name, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def records(self) -> list[Span]:
        return [Span(*s, self.run_id) for s in self.spans]

    def overhead_s(self) -> float:
        """Estimated wall time the tracer added to the traced command."""
        return len(self.spans) * wrapper_cost() + self.probe_s

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": self.spans,
                       "counts": dict(self.counts),
                       "overhead_s": self.overhead_s()}, fh)


def wrapper_cost(calls: int = 20000, rounds: int = 7) -> float:
    """Seconds the span wrapper adds to one call: the median over rounds of
    (wrapped loop - bare loop) / calls, nested one level under a parent
    span as the traced calls are."""
    def noop(x):
        return x

    costs = []
    for _ in range(rounds):
        tracer = Tracer("calibration")
        wrapped = tracer.wrap(noop, "noop")

        def loop(fn):
            start = time.perf_counter()
            for i in range(calls):
                fn(i)
            return time.perf_counter() - start

        bare = loop(noop)
        traced = tracer.wrap(loop, "parent")(wrapped)
        costs.append((traced - bare) / calls)
    return max(statistics.median(costs), 0.0)


def read_trace(path: str) -> tuple[list[Span], Counter, float]:
    """Spans, counters and estimated tracing overhead of one traced run."""
    with open(path, encoding="utf-8") as fh:
        rec = json.load(fh)
    spans = [Span(*s, rec["run"]) for s in rec["spans"]]
    return spans, Counter(rec["counts"]), rec["overhead_s"]


def self_times(spans) -> dict[str, dict]:
    """Per span name: calls, self time and inclusive time.

    A span's self time is its duration minus the durations of its direct
    children (spans are properly nested in a single-threaded run).
    """
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    out: dict[str, dict] = {}
    for s in spans:
        acc = out.setdefault(s.name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        acc["calls"] += 1
        acc["self_s"] += (s.end - s.start) - covered[s.id]
        acc["total_s"] += s.end - s.start
    return out


def calls_under(spans, name: str, parent_name: str) -> int:
    """Calls named ``name`` whose direct parent span is named ``parent_name``."""
    parents = {s.id for s in spans if s.name == parent_name}
    return sum(1 for s in spans if s.name == name and s.parent in parents)


def layer_probes() -> dict:
    """Counters recorded at the layer boundaries, keyed by span name."""
    from vvmf.exactfield import CycNumber
    from vvmf.qseries import QSeries

    def has_cyc(x) -> bool:
        # Series coefficients are demoted, so order 1 means rational.
        if isinstance(x, QSeries):
            return any(c.order != 1 for c in x.coeffs)
        return isinstance(x, CycNumber) and not x.is_rational()

    def series_op(counts, args, result):
        if not isinstance(result, QSeries):
            return
        counts["qseries.coeffs_out"] += result.valid_to - result.lead
        counts["qseries.sparse_ops"] += result.grid > 1
        counts["qseries.cyc_ops"] += any(has_cyc(a) for a in args)

    def power(counts, args, result):
        if isinstance(result, QSeries):
            counts["qseries.sparse_ops"] += result.grid > 1

    def candidates(counts, args, result):
        counts["weightcalc.candidates"] += len(result)

    def cases(counts, args, result):
        counts["suites.cases"] += len(result.cases)

    return {"qseries.mul": series_op, "qseries.div": series_op,
            "qseries.pow": power, "weightcalc.enumerate": candidates,
            "suites.run": cases}


def cache_counts() -> Counter:
    from vvmf import scalarforms

    counts = Counter()
    for name in CACHED:
        info = getattr(scalarforms, name).cache_info()
        counts["scalarforms.cache_hits"] += info.hits
        counts["scalarforms.cache_misses"] += info.misses
        counts["scalarforms.cache_entries"] += info.currsize
    return counts


def layer_metrics(spans, counts) -> dict[str, float]:
    """The per-layer metrics of one traced invocation (times in seconds)."""
    st = self_times(spans)

    def self_s(*names):
        return sum((st[n]["self_s"] for n in names if n in st), 0.0)

    def calls(name):
        return st[name]["calls"] if name in st else 0

    exterior_calls = calls("detlab.exterior")
    return {
        "exactfield.mul_calls": calls("exactfield.mul"),
        "exactfield.mul_s": self_s("exactfield.mul"),
        "exactfield.add_s": self_s("exactfield.add"),
        "exactfield.inverse_calls": calls("exactfield.inverse"),
        "exactfield.inverse_s": self_s("exactfield.inverse"),
        "qseries.mul_calls": calls("qseries.mul"),
        "qseries.mul_s": self_s("qseries.mul"),
        "qseries.div_calls": calls("qseries.div"),
        "qseries.div_s": self_s("qseries.div"),
        "qseries.pow_calls": calls("qseries.pow"),
        "qseries.pow_s": self_s("qseries.pow"),
        "qseries.add_s": self_s("qseries.add"),
        "qseries.compare_s": self_s("qseries.compare"),
        "qseries.coeffs_out": counts["qseries.coeffs_out"],
        "qseries.sparse_ops": counts["qseries.sparse_ops"],
        "qseries.cyc_ops": counts["qseries.cyc_ops"],
        "scalarforms.build_s": self_s("scalarforms.build"),
        "scalarforms.discriminant_s": self_s("scalarforms.discriminant"),
        "scalarforms.cache_hits": counts["scalarforms.cache_hits"],
        "scalarforms.cache_misses": counts["scalarforms.cache_misses"],
        "scalarforms.cache_entries": counts["scalarforms.cache_entries"],
        "replib.load_s": self_s("replib.load"),
        "replib.traces_s": self_s("replib.traces"),
        "replib.multiplicities_s": self_s("replib.multiplicities"),
        "replib.semisimple_s": self_s("replib.semisimple"),
        "weightcalc.enumerate_s": self_s("weightcalc.enumerate"),
        "weightcalc.candidates": counts["weightcalc.candidates"],
        "weightcalc.profile_s": self_s("weightcalc.profile"),
        "detlab.exterior_calls": exterior_calls,
        "detlab.exterior_s": self_s("detlab.exterior"),
        "detlab.mul_per_exterior": (
            calls_under(spans, "qseries.mul", "detlab.exterior")
            / exterior_calls if exterior_calls else 0.0),
        "detlab.formula_s": self_s("detlab.formula"),
        "detlab.weak_set_s": self_s("detlab.weak_set"),
        "suites.run_s": self_s("suites.run"),
        "suites.cases": counts["suites.cases"],
        "cli.main_s": st["cli.main"]["total_s"] if "cli.main" in st else 0.0,
        "cli.write_s": self_s("cli.write"),
        "cli.other_s": self_s("cli.main"),
    }


def main(argv: list[str]) -> int:
    spans_path, run_id, rss_path, sep, *vvmf_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json RUN_ID RSS_FILE -- VVMF_ARGS...")
    from cli_child import record_peak_rss
    import vvmf.cli

    record_peak_rss(rss_path)

    tracer = Tracer(run_id)
    tracer.install()
    try:
        code = vvmf.cli.main(vvmf_args)
    finally:
        tracer.uninstall()
    tracer.counts.update(cache_counts())
    tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
