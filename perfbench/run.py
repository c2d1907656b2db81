"""vvmf benchmark: times real ``vvmf`` CLI invocations end to end.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.  Each
invocation is a fresh single-threaded process, so the lru_caches start cold,
as every CLI user sees them.  Invocations run one at a time (closed loop,
one client) until ``--seconds`` is used up, and every report is checked for
correctness.  With ``--trace 0`` the result holds the end-to-end metrics,
times scaled to a reference host speed (see REF_PROBE_S) and also printed
as measured; with ``--trace 1`` the invocations run under the tracer (see tracing.py)
and the result holds the per-layer metrics, medians over the invocations.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs,
reports, spans and a ``result.json`` with the run context are written under
``.bench_build/perfbench/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

# Fresh-interpreter imports of vvmf.cli timed before each invocation for
# setup_s, so they are spread over the run like the invocations.
SETUP_PER_ROUND = 10

# Host-speed probe.  On the shared 2-vCPU host the benchmark was defined on,
# the speed of pure-Python code drifts by up to 1.7x over minutes (CPU time
# drifts with wall time, so it is contention, not waiting).  A fixed integer
# loop is timed before and after every round; the round's times are scaled
# by REF_PROBE_S / (mean of the two probes), i.e. reported in seconds at the
# host speed where the loop takes REF_PROBE_S (its median there).  Over 31
# cyclo-det invocations in 4 minutes this cut the IQR/median of the wall
# time from 0.235 to 0.091, and of the import time from 0.268 to 0.103.
# The program never runs the loop, so a change to it cannot move the scale.
PROBE_ITERATIONS = 5_000_000
REF_PROBE_S = 0.5


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]                   # vvmf arguments; {gens} and {rep} name input files
    check: Callable[[int, str], list[str]]  # (exit code, report) -> problems


WORKLOADS = {
    # Dense grid-1 integer series and heavy gen_form/hauptmodul cache reuse:
    # the qseries int/Fraction kernels and scalarforms, nothing else.
    "scalar": Workload(("verify", "scalar", "--order", "256"),
                       checks.suite_checker("scalar")),
    # Grid-12 eta powers (11/12 of stored coefficients zero), negative
    # powers, twists and 1x1/2x2 exterior products: the sparse-grid path.
    "det-suite": Workload(("verify", "det", "--order", "96"),
                          checks.suite_checker("det-suite")),
    # d = 5 determinant over Q(zeta_12): CycNumber multiplication in the
    # cyclotomic series kernels, under detlab's cofactor expansion.
    "cyclo-det": Workload(("det", "{gens}", "{rep}", "--order",
                           str(inputs.CYCLO_ORDER)), checks.check_cyclo_det),
    # d = 8 weight-multiset enumeration (7.9M combinations, 87,680 results),
    # dense 8x8 validation over Q(zeta_12) and an 87k-line report.
    "enumerate": Workload(("analyze", "{rep}", "--enumerate", "--kmax",
                           str(checks.ENUM_KMAX)), checks.check_enumerate),
}


@dataclass
class Sample:
    wall_s: float          # as measured
    peak_rss_mib: float
    problems: list[str]
    scale: float = 1.0     # host-speed scale of the sample's round


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd: list[str], cwd: Path, stdout_path: Path) -> tuple[int, float]:
    """Run ``cmd`` to completion; return its exit code and its wall time
    from spawn to exit."""
    with open(stdout_path, "wb") as out, open(cwd / "stderr.txt", "ab") as err:
        start = time.perf_counter()
        code = subprocess.run(cmd, cwd=cwd, env=child_env(), stdout=out,
                              stderr=err).returncode
        return code, time.perf_counter() - start


def prepare_inputs(name: str, seed: int, work: Path) -> dict[str, str]:
    """Write the seeded input files and validate them with vvmf before any
    timing; returns the placeholders of the workload's argv."""
    from vvmf.replib import load_rep

    files = {}
    if name == "cyclo-det":
        gens, rep = inputs.cyclo_det_inputs(seed)
        files = {"gens": gens, "rep": rep}
    elif name == "enumerate":
        files = {"rep": inputs.enumerate_input(seed)}
    paths = {}
    for key, record in files.items():
        path = work / f"{key}.json"
        path.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
        paths[key] = path.name
    if "rep" in files:
        load_rep(files["rep"])
    return paths


def invoke(workload: Workload, argv: list[str], work: Path, tag: str,
           trace_path: Path | None = None) -> Sample:
    """One CLI invocation, plain (cli_child.py) or traced (tracing.py); both
    children write their own peak resident memory to ``rss-<tag>.txt``."""
    report = work / f"report-{tag}.txt"
    rss_path = work / f"rss-{tag}.txt"
    rss_path.unlink(missing_ok=True)
    if trace_path is None:
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(rss_path), *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracing.py"), str(trace_path), tag,
               str(rss_path), "--", *argv]
    code, wall = spawn(cmd, work, report)
    problems = workload.check(code, report.read_text(encoding="utf-8"))
    try:
        rss = int(rss_path.read_text(encoding="ascii")) / 1024.0
    except (OSError, ValueError):
        rss = 0.0
        problems.append("the child recorded no peak resident memory")
    return Sample(wall, rss, problems)


def time_import(work: Path) -> float:
    """Wall time of a fresh interpreter running ``import vvmf.cli``."""
    code, wall = spawn([sys.executable, "-c", "import vvmf.cli"], work,
                       work / "setup-out.txt")
    if code != 0:
        raise RuntimeError(f"import vvmf.cli exited with {code}")
    return wall


def ends_window(start: float, typical: float, seconds: float) -> bool:
    """Stop before a round that would end more than half a round past the
    window, so a run lasts ``seconds`` on average."""
    return time.perf_counter() - start + typical / 2 > seconds


def probe_host() -> float:
    """Wall time of a fixed pure-Python integer loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - start


def run_untraced(workload, argv, work, seconds):
    """Rounds of SETUP_PER_ROUND timed imports and one timed invocation,
    each round between two host-speed probes.  Returns the invocations and
    the import times as (seconds, scale) pairs."""
    time_import(work)  # not timed: may compile bytecode
    samples, setup = [], []
    before = probe_host()
    start = time.perf_counter()
    while True:
        imports = [time_import(work) for _ in range(SETUP_PER_ROUND)]
        sample = invoke(workload, argv, work, f"{len(samples)}")
        after = probe_host()
        sample.scale = REF_PROBE_S / ((before + after) / 2)
        before = after
        samples.append(sample)
        setup += [(t, sample.scale) for t in imports]
        typical = (statistics.median(s.wall_s for s in samples)
                   + SETUP_PER_ROUND * statistics.median(t for t, _ in setup))
        if ends_window(start, typical, seconds):
            return samples, setup


def run_traced(workload, argv, work, seconds):
    """Traced invocations; each gives the per-layer metrics of its spans."""
    runs = []
    start = time.perf_counter()
    while True:
        i = len(runs)
        spans_path = work / f"spans-{i}.json"
        traced = invoke(workload, argv, work, f"traced-{i}", spans_path)
        spans, counts, overhead = tracing.read_trace(str(spans_path))
        layer = tracing.layer_metrics(spans, counts)
        layer["cli.output_bytes"] = (work / f"report-traced-{i}.txt").stat().st_size
        layer["trace.overhead_s"] = overhead
        runs.append((traced, layer))
        if ends_window(start, statistics.median(t.wall_s for t, _ in runs), seconds):
            return runs


def context() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "vvmf").glob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_lines": src_lines}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    return "ratio" if "_per_" in name else "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vvmf" / "cli.py").is_file():
        print(f"error: no vvmf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import vvmf
    if Path(vvmf.__file__).resolve().parent != SRC / "vvmf":
        print(f"error: imported vvmf from {vvmf.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = ROOT / ".bench_build" / "perfbench" / args.workload
    work.mkdir(parents=True, exist_ok=True)
    (work / "stderr.txt").write_bytes(b"")
    placeholders = prepare_inputs(args.workload, args.seed, work)
    cli_argv = [a.format(**placeholders) for a in workload.argv]
    ctx = context()
    print(f"workload {args.workload} seed {args.seed}: vvmf {' '.join(cli_argv)}")
    print(f"context: python {ctx['python']}, nproc {ctx['nproc']}, "
          f"commit {ctx['commit']}, src lines {ctx['src_lines']}")

    if args.trace:
        runs = run_traced(workload, cli_argv, work, args.seconds)
        samples = [t for t, _ in runs]
        setup = []
        print("traced child peak RSS: "
              + ", ".join(f"{s.peak_rss_mib:.1f}" for s in samples) + " MiB")
        metrics = {name: {"value": statistics.median(layer[name] for _, layer in runs),
                          "unit": layer_unit(name)}
                   for name in runs[0][1]}
    else:
        samples, setup = run_untraced(workload, cli_argv, work, args.seconds)
        walls = sorted(s.wall_s * s.scale for s in samples)
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(s.peak_rss_mib for s in samples),
                             "unit": "MiB"},
            "setup_s": {"value": statistics.median(t * k for t, k in setup), "unit": "s"},
        }
        # A run holds a handful of invocations: too few for a tail percentile
        # with ten samples beyond it, so the extremes are printed instead.
        print(f"wall samples: {len(walls)} (min {walls[0]:.4f} s, max {walls[-1]:.4f} s); "
              f"setup samples: {len(setup)}")
        print(f"as measured, before scaling to the reference host speed: wall_s "
              f"{statistics.median(s.wall_s for s in samples):.6g} s, setup_s "
              f"{statistics.median(t for t, _ in setup):.6g} s; scales "
              + ", ".join(f"{s.scale:.3f}" for s in samples))

    failed = sum(1 for s in samples if s.problems)
    for i, s in enumerate(samples):
        for problem in s.problems:
            print(f"FAILED invocation {i}: {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_rate = {failed}/{len(samples)}")
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed,
              "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "trace": args.trace,
         "context": ctx, "wall_samples_s": [s.wall_s for s in samples],
         "peak_rss_samples_mib": [s.peak_rss_mib for s in samples],
         "scales": [s.scale for s in samples],
         "setup_samples_s": [t for t, _ in setup],
         "setup_scales": [k for _, k in setup]},
        indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
