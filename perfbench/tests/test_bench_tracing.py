"""Tracer arithmetic, wrapper removal, and the metric list of BENCHMARK.json."""

import io
import json
from contextlib import redirect_stdout

import pytest

import run
import tracing
from tracing import Span, Tracer, calls_under, self_times

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_times_on_synthetic_tree():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7] and e [7.5, 8].
    spans = [Span(0, "a", 0.0, 10.0, None, "r"), Span(1, "b", 1.0, 4.0, 0, "r"),
             Span(2, "c", 5.0, 9.0, 0, "r"), Span(3, "d", 6.0, 7.0, 2, "r"),
             Span(4, "e", 7.5, 8.0, 2, "r")]
    st = self_times(spans)
    assert {n: v["self_s"] for n, v in st.items()} == pytest.approx(
        {"a": 3.0, "b": 3.0, "c": 2.5, "d": 1.0, "e": 0.5})
    assert st["a"]["total_s"] == 10.0 and st["c"]["calls"] == 1
    # Self times partition the root span.
    assert sum(v["self_s"] for v in st.values()) == pytest.approx(10.0)
    assert calls_under(spans, "e", "c") == 1
    assert calls_under(spans, "d", "a") == 0


def test_same_name_nesting_counts_each_call():
    spans = [Span(0, "pow", 0.0, 4.0, None, "r"), Span(1, "mul", 0.5, 3.5, 0, "r"),
             Span(2, "mul", 1.0, 2.0, 1, "r"), Span(3, "mul", 2.0, 3.0, 1, "r")]
    st = self_times(spans)
    assert st["mul"]["calls"] == 3
    assert st["mul"]["self_s"] == pytest.approx(1.0 + 1.0 + 1.0)
    assert st["pow"]["self_s"] == pytest.approx(1.0)


def test_wrap_records_one_span_per_call():
    tracer = Tracer("t")

    def leaf(x):
        return x + 1

    wrapped_leaf = tracer.wrap(leaf, "leaf")

    def outer(n):
        return sum(wrapped_leaf(i) for i in range(n))

    wrapped_outer = tracer.wrap(outer, "outer",
                                probe=lambda c, args, r: c.update(items=args[0]))
    assert wrapped_outer(4) == 10
    spans = tracer.records()
    root = next(s for s in spans if s.name == "outer")
    assert [(s.name, s.parent) for s in spans] == [("leaf", root.id)] * 4 + [("outer", None)]
    assert len({s.id for s in spans}) == 5
    assert tracer.counts["items"] == 4 and tracer.probe_s > 0
    assert self_times(spans)["leaf"]["calls"] == 4


def test_trace_file_round_trip_and_overhead(tmp_path):
    tracer = Tracer("t")
    tracer.wrap(lambda: tracer.wrap(lambda: 1, "inner")(), "outer")()
    tracer.counts["n"] += 2
    path = tmp_path / "spans.json"
    tracer.write(str(path))
    spans, counts, overhead = tracing.read_trace(str(path))
    assert spans == tracer.records() and counts == {"n": 2}
    assert 0 <= overhead < 0.01
    assert 0 <= tracing.wrapper_cost() < 1e-3


def test_span_closes_when_the_call_raises():
    tracer = Tracer("t")

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "boom")()
    assert [s.name for s in tracer.records()] == ["boom"] and not tracer._stack


def _traced_values():
    import vvmf  # noqa: F401  (loads every submodule)
    import sys
    out = []
    for name, mod in sys.modules.items():
        if name == "vvmf" or name.startswith("vvmf."):
            out += [v for v in vars(mod).values() if hasattr(v, "perfbench_span")]
            for cls in (v for v in vars(mod).values() if isinstance(v, type)):
                out += [v for v in vars(cls).values() if hasattr(v, "perfbench_span")]
    return out


def test_wrappers_are_removed_after_a_traced_run():
    import vvmf.cli
    from vvmf.exactfield import CycNumber
    from vvmf.qseries import QSeries
    from vvmf import detlab, suites

    before = (CycNumber.__mul__, QSeries.__mul__, vvmf.cli.main,
              vvmf.cli.exterior_product, suites.exterior_product, detlab.det_zero)
    tracer = Tracer("t")
    tracer.install()
    assert _traced_values()
    assert vvmf.cli.exterior_product is suites.exterior_product is detlab.exterior_product
    assert hasattr(vvmf.cli.exterior_product, "perfbench_span")
    try:
        with redirect_stdout(io.StringIO()):
            assert vvmf.cli.main(["verify", "det", "--order", "8"]) == 0
    finally:
        tracer.uninstall()
    assert _traced_values() == []
    after = (CycNumber.__mul__, QSeries.__mul__, vvmf.cli.main,
             vvmf.cli.exterior_product, suites.exterior_product, detlab.det_zero)
    assert all(a is b for a, b in zip(before, after))
    metrics = tracing.layer_metrics(tracer.records(), tracer.counts)
    assert metrics["suites.cases"] == 126
    assert metrics["detlab.exterior_calls"] > 0 and metrics["qseries.mul_calls"] > 0


def test_metric_names_and_units_match_benchmark_json():
    layer = tracing.layer_metrics([], tracing.Counter())
    names = list(layer) + ["cli.output_bytes", "trace.overhead_s"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert sorted(names) == sorted(declared)
    assert {n: run.layer_unit(n) for n in names} == declared
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {"wall_s", "peak_rss_mib", "setup_s"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
