"""``det`` reads its generators file in one pass, against the tree route.

``cmd_det`` decodes a generators file through ``cli._load`` with
``detlab.series_hook``, which turns each series record into its QSeries as
the decoder closes it.  The oracle is the tree route it replaced,
``generators_from_record(json.load(fh))``, which decodes the whole file
before it reads any series.  Both run the same readers, so on a single
fault they give equal vectors or refuse with the same exception and
message.  The one exception is a series record where a coefficient record
belongs: the one pass has read it into a QSeries by then, so the two
refuse it with different messages.

The faults are seeded edits of the benchmark's seed-1 ``cyclo-det``
generators file (``perfbench/inputs.py``, loaded from its file and only
read).  The same construction at order 512, a 1.5 MB file, pins what the
one pass costs: ``det`` reads it at a traced peak under 4 times the file's
size (the tree route peaked at 9.5 times), and prints the same report under
``python -O`` as without it.
"""

import importlib.util
import json
import os
import random
import subprocess
import sys
import tracemalloc
from functools import lru_cache
from pathlib import Path

import pytest

import vvmf
from vvmf import cli
from vvmf.cli import main
from vvmf.detlab import generators_from_record, series_hook
from vvmf.errors import UsageError

INPUTS = Path(__file__).resolve().parent.parent / "perfbench" / "inputs.py"

# The exceptions cli._load turns into a usage error (exit 2).
LOAD_ERRORS = (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError,
               ZeroDivisionError, OverflowError, RecursionError)


def _perfbench_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(path: Path, record) -> str:
    path.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


# -- seeded faults in the seed-1 cyclo-det generators file ---------------------

# A value of each JSON type, for the type swaps and the extra keys.
VALUES = [0, 1, -3, 2.5, "x", "7", "1/2", [], [1], {}, {"k": 1}, None]
KINDS = ["swap", "delete", "boolean", "string", "1e400", "nan", "extra",
         "coefficient for series", "series for coefficient"]
SERIES = ("generators", "*", "components", "*")
COEFFICIENT = SERIES + ("coeffs", "*")


def _paths(node, path=()):
    """Every path in a record, the record's own () first."""
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


DELETE = object()


def _get(record, path):
    for step in path:
        record = record[step]
    return record


def _edit(node, path, value):
    """``node`` with ``value`` at ``path``, or with what is there removed if
    ``value`` is DELETE; only the containers along the path are copied."""
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    key, rest = path[0], path[1:]
    if rest:
        copy[key] = _edit(node[key], rest, value)
    elif value is DELETE:
        del copy[key]
    else:
        copy[key] = value
    return copy


def _mutate(record, by_shape: dict, kind: str, rng: random.Random) -> str:
    """The JSON text of ``record`` with one fault of ``kind``.  The node is
    drawn by its shape first (its path with every list index as "*"), so
    fields near the root are hit as often as coefficients."""
    if kind in ("coefficient for series", "series for coefficient"):
        there, other = (SERIES, COEFFICIENT) if kind.startswith("coefficient") else \
            (COEFFICIENT, SERIES)
        value = _get(record, rng.choice(by_shape[other]))
        return json.dumps(_edit(record, rng.choice(by_shape[there]), value), sort_keys=True)
    want = {"delete": lambda node, shape: shape != (),
            "extra": lambda node, shape: isinstance(node, dict),
            "string": lambda node, shape: isinstance(node, list)}.get(kind, lambda *_: True)
    shapes = [shape for shape, paths in by_shape.items() if want(_get(record, paths[0]), shape)]
    path = rng.choice(by_shape[rng.choice(shapes)])
    node = _get(record, path)
    if kind == "swap":
        value = rng.choice([v for v in VALUES if type(v) is not type(node)])
    elif kind == "delete":
        value = DELETE
    elif kind == "boolean":
        value = rng.choice([True, False])
    elif kind == "string":  # a list of strings joined, as "0010" for z^2
        value = "".join(x for x in node if isinstance(x, str)) or "[]"
    elif kind == "extra":
        path, value = path + (rng.choice(["extra", "order", "weight", "name"]),), \
            rng.choice(VALUES)
    else:  # JSON text json.dumps cannot write: a number past the float range, NaN
        text = rng.choice(["1e400", "-1e400"]) if kind == "1e400" else "NaN"
        return json.dumps(_edit(record, path, "@"), sort_keys=True).replace('"@"', text)
    return json.dumps(_edit(record, path, value), sort_keys=True)


def _tree(path: str):
    """The oracle: the tree route's generators, or the message of the usage
    error ``cli._load`` would make of its exception."""
    try:
        with open(path, encoding="utf-8") as fh:
            return generators_from_record(json.load(fh))
    except LOAD_ERRORS as exc:
        return f"{path}: malformed input ({type(exc).__name__}: {exc})"


def _one_pass(path: str):
    """What ``det`` reads: its generators, or the message of its exit 2."""
    try:
        return cli._load(path, generators_from_record, series_hook)
    except UsageError as exc:
        return str(exc)


def test_one_pass_load_matches_the_tree_route(tmp_path, capsys):
    gens, rep = _perfbench_inputs().cyclo_det_inputs(1)
    rep_path = _write(tmp_path / "rep.json", rep)
    by_shape = {}
    for path in _paths(gens):
        by_shape.setdefault(tuple("*" if type(s) is int else s for s in path), []).append(path)
    rng = random.Random("generators-oracle")
    path = str(tmp_path / "gens.json")
    tally = {}
    for kind in KINDS * 22:
        Path(path).write_text(_mutate(gens, by_shape, kind, rng), encoding="utf-8")
        want, got = _tree(path), _one_pass(path)
        refused = isinstance(want, str)
        if kind == "series for coefficient":
            assert refused and isinstance(got, str), got
        else:
            assert got == want, kind
        if refused and (kind, refused) not in tally:
            # The command itself, once for each kind of fault it refuses.
            assert main(["det", path, rep_path, "--order", "8"]) == 2
            assert capsys.readouterr().err == f"error: {got}\n"
        tally[kind, refused] = tally.get((kind, refused), 0) + 1
    # Every kind is refused somewhere; a fault in an optional field (the
    # name, the declared dimension) or an extra key may be read.
    assert {kind for kind, refused in tally if refused} == set(KINDS)
    assert sum(n for (_, refused), n in tally.items() if not refused) > 20


# -- the order-512 construction --------------------------------------------------

@pytest.fixture(scope="module")
def order512(tmp_path_factory):
    """The seed-1 cyclo-det files with generators trusted past q^512."""
    inputs = _perfbench_inputs()
    inputs.CYCLO_ORDER = 512
    # The five components of each generator take the same Euler power.
    inputs.euler_power = lru_cache(maxsize=None)(inputs.euler_power)
    gens, rep = inputs.cyclo_det_inputs(1)
    work = tmp_path_factory.mktemp("order512")
    return _write(work / "gens.json", gens), _write(work / "rep.json", rep)


def test_det_reads_its_generators_file_under_four_times_its_size(order512, monkeypatch):
    gens, rep = order512
    peaks, load = [], cli._load

    def traced(path, *args):
        if path != gens:
            return load(path, *args)
        tracemalloc.start()
        try:
            load(path, *args)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        raise UsageError("read")  # the determinant is not measured here

    monkeypatch.setattr(cli, "_load", traced)
    assert main(["det", gens, rep, "--order", "8"]) == 2
    size = os.path.getsize(gens)
    assert size > 1_400_000 and peaks[0] < 4 * size, (peaks, size)


def test_det_reports_the_same_under_python_O(order512):
    gens, rep = order512
    env = dict(os.environ, PYTHONPATH=str(Path(vvmf.__file__).parent.parent))
    runs = [subprocess.run([sys.executable, *flags, "-m", "vvmf.cli", "det", gens, rep,
                            "--order", "8"], env=env, capture_output=True, text=True,
                           timeout=300) for flags in ([], ["-O"])]
    assert [(r.returncode, r.stdout, r.stderr) for r in runs] == [(0, runs[0].stdout, "")] * 2
    assert runs[0].stdout.endswith("weight-0 determinant vs multiplicity formula: ok\n")
