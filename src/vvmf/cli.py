"""Command-line front end.

Subcommands: ``series`` (build a named q-expansion), ``analyze`` (validate a
representation file and report its weight constraints), ``verify`` (run a
named identity suite) and ``det`` (check a generators file against its
representation).

Exit codes: 0 pass, 1 check or validation failure, 2 usage error or a
number too long to print, 3 precision/singularity (raise the order and retry).
"""

from __future__ import annotations

import importlib
import math
import os
import sys
from itertools import chain, islice

from . import SUITE_NAMES
from .errors import PrecisionError, UsageError, VvmfError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_PRECISION = 3

MIN_ORDER = 8
MAX_ORDER = 8192


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="vvmf",
        description="Exact q-expansions and trace constraints for "
                    "vector-valued modular forms.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--order", type=int, default=128,
                       help="expansion order (trusted exponent bound), 8 to 8192")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--output", metavar="PATH",
                       help="write the report here instead of stdout")

    p_series = sub.add_parser("series", help="emit a named scalar form")
    p_series.add_argument("name",
                          help="E4, E6, Delta, J, delta, or f:<n>")
    common(p_series)
    p_series.set_defaults(func=cmd_series)

    p_analyze = sub.add_parser("analyze", help="validate and analyze a representation file")
    p_analyze.add_argument("rep_path")
    common(p_analyze)
    p_analyze.add_argument("--enumerate", dest="enumerate_", action="store_true",
                           help="append trace-consistent weight multisets")
    p_analyze.add_argument("--kmin", type=int, default=0)
    p_analyze.add_argument("--kmax", type=int, default=11)
    p_analyze.add_argument("--sum", dest="sum_w", type=int, default=None,
                           help="restrict candidates to this total weight")
    p_analyze.set_defaults(func=cmd_analyze)

    p_verify = sub.add_parser("verify", help="run a named identity suite")
    p_verify.add_argument("suite", choices=SUITE_NAMES)
    common(p_verify)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=cmd_verify)

    p_det = sub.add_parser("det", help="check a generators file against a representation")
    p_det.add_argument("gens_path")
    p_det.add_argument("rep_path")
    common(p_det)
    p_det.set_defaults(func=cmd_det)

    return parser


# Lines of a report written per call: a large report is never held whole,
# and an unbuffered stdout still sees few writes.  A block's lines, its text
# and its encoded bytes are alive at once: on an 87,680-candidate report
# written to a file, blocks of 8192 lines raised the peak memory by about
# 3 MiB over blocks of 1024 as text, and by about 12 MiB as JSON.
TEXT_BLOCK_LINES = 1024


def _json_blocks(payload: dict):
    """``payload`` as ``json.JSONEncoder(sort_keys=True, indent=2)`` encodes
    it, in blocks.  That encoder has no C path with an indent, so the rows
    of ``_Candidates`` under ``candidate_multisets`` are laid out here by
    hand, as it would lay them out, between the encoder's text for the rest
    of the payload; a report with no candidates holds [] there instead."""
    import json

    encoder = json.JSONEncoder(sort_keys=True, indent=2)
    rows = payload.get("candidate_multisets")
    if not isinstance(rows, _Candidates):
        # Blocks of encoder chunks, for the same reason as text blocks.
        chunks = encoder.iterencode(payload)
        while block := "".join(islice(chunks, 65536)):
            yield block
        return
    key = '"candidate_multisets": '
    head, _, tail = encoder.encode({**payload, "candidate_multisets": None}) \
        .partition(key + "null")
    yield head + key + "[\n"
    it, sep = rows.json_entries(), ""
    while block := list(islice(it, TEXT_BLOCK_LINES)):
        yield sep + ",\n".join(block)
        sep = ",\n"
    yield "\n  ]" + tail


class _Texts(dict):
    """str(value(k)) by k, each made on the first lookup of its k."""

    def __init__(self, value):
        self.value = value

    def __missing__(self, k):
        self[k] = text = str(self.value(k))
        return text


class _Candidates:
    """A report's candidate weight multisets: ``ks``, the walk's sorted k
    tuples, each with weights 2k + epsilon.  The report lays them out as
    they arrive, read once, from the text of each k and weight, made once
    per k value on its first use."""

    def __init__(self, epsilon: int, ks):
        self.epsilon, self.ks = epsilon, ks
        self.k_text = _Texts(int).__getitem__
        self.w_text = _Texts(lambda k: 2 * k + epsilon).__getitem__

    def text_lines(self):
        k_text, w_text = self.k_text, self.w_text
        return (f"  k = [{', '.join(map(k_text, ks))}]  ->  "
                f"weights [{', '.join(map(w_text, ks))}]" for ks in self.ks)

    def json_entries(self):
        """Each row {"epsilon": int, "ks": [int], "weights": [int]} in the
        indent=2 layout at depth 2; a row's lists are never empty, since a
        representation has dimension at least 1."""
        head = f'    {{\n      "epsilon": {self.epsilon},\n      "ks": [\n        '
        mid = '\n      ],\n      "weights": [\n        '
        sep, tail = ",\n        ", "\n      ]\n    }"
        return (head + sep.join(map(self.k_text, ks)) + mid + sep.join(map(self.w_text, ks)) + tail
                for ks in self.ks)


def _emit(args, payload: dict, lines) -> None:
    """Write the report: ``payload`` as JSON, or the iterable of text
    ``lines``, each ended by a newline."""
    def write(fh) -> None:
        if args.format == "json":
            for block in _json_blocks(payload):
                fh.write(block)
            fh.write("\n")
        else:
            it = iter(lines)
            while block := list(islice(it, TEXT_BLOCK_LINES)):
                fh.write("\n".join(block) + "\n")

    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                write(fh)
        except OSError as exc:
            raise UsageError(f"{args.output}: cannot write output ({exc.strerror})") from None
    else:
        try:
            write(sys.stdout)
            # Flushed here, so that a closed pipe shows here and not at exit;
            # a stand-in stdout need only have write().
            getattr(sys.stdout, "flush", lambda: None)()
        except BrokenPipeError:
            # The reader closed stdout.  Point its descriptor at devnull, so
            # that the flush at interpreter exit has nothing left to fail on.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise UsageError("stdout was closed before the report was written") from None


def _check_order(order: int) -> None:
    if order < MIN_ORDER:
        raise UsageError(f"--order must be at least {MIN_ORDER}, got {order}")
    if order > MAX_ORDER:
        raise UsageError(f"--order must be at most {MAX_ORDER}, got {order}")


def _load(path: str, parse, object_hook=None):
    """Read a JSON input file and parse it; a malformed file is a usage error."""
    import json

    try:
        with open(path, encoding="utf-8") as fh:
            return parse(json.load(fh, object_hook=object_hook))
    except (OSError, json.JSONDecodeError, KeyError, ValueError, TypeError,
            ZeroDivisionError, OverflowError, RecursionError) as exc:
        raise UsageError(f"{path}: malformed input ({type(exc).__name__}: {exc})") from None


def cmd_series(args) -> int:
    from .scalarforms import gen_form_order, named_form

    _check_order(args.order)
    if args.name.startswith("f:"):
        try:
            need = gen_form_order(int(args.name[2:]), args.order)
        except ValueError:
            need = 0  # not f:<n>; named_form rejects the name below
        if need > MAX_ORDER:
            raise UsageError(f"{args.name} expands to order {need}, above the ceiling {MAX_ORDER}")
    try:
        series = named_form(args.name, args.order)
    except KeyError:
        raise UsageError(
            f"unknown form name {args.name!r}; use E4, E6, Delta, J, delta "
            "or f:<n>") from None
    payload = {
        "schema_version": 1,
        "name": args.name,
        "order": args.order,
        "series": series.to_record(),
    }
    _emit(args, payload, [str(series)])
    return EXIT_OK


def cmd_analyze(args) -> int:
    from .replib import Multiplicities, load_rep, t_is_semisimple
    from .weightcalc import _candidate_ks, weight_profile

    _check_order(args.order)
    if args.enumerate_ and args.kmin > args.kmax:
        raise UsageError(f"--kmin {args.kmin} exceeds --kmax {args.kmax}")
    rep = _load(args.rep_path, load_rep)
    profile = weight_profile(rep)
    mult = Multiplicities(profile.count_k_odd, profile.count_k_mod3_1, profile.count_k_mod3_2)
    payload = {
        "schema_version": 1,
        "name": rep.name,
        "dimension": rep.dimension,
        "parity": rep.epsilon,
        "t_semisimple": t_is_semisimple(rep),
        "traces": {
            "S": profile.at_minus_i.to_record(),
            "U": profile.at_zeta_inv.to_record(),
            "U_inv": profile.at_zeta.to_record(),
        },
        "multiplicities": {
            "alpha": mult.alpha, "beta1": mult.beta1, "beta2": mult.beta2,
        },
        "weight_congruence_counts": {
            "k_odd": profile.count_k_odd,
            "k_mod3_1": profile.count_k_mod3_1,
            "k_mod3_2": profile.count_k_mod3_2,
        },
        "hilbert_values": {
            "at_minus_i": profile.at_minus_i.to_record(),
            "at_zeta": profile.at_zeta.to_record(),
            "at_zeta_inv": profile.at_zeta_inv.to_record(),
        },
    }
    lines = [
        f"representation {rep.name}: dimension {rep.dimension}, "
        f"parity {rep.epsilon}",
        f"traces: S = {profile.at_minus_i}, U = {profile.at_zeta_inv}, U^-1 = {profile.at_zeta}",
        f"multiplicities: alpha={mult.alpha} beta1={mult.beta1} "
        f"beta2={mult.beta2}",
        f"weight counts: odd={profile.count_k_odd} "
        f"mod3=1:{profile.count_k_mod3_1} mod3=2:{profile.count_k_mod3_2}",
        f"P(-i) = {profile.at_minus_i}, P(zeta) = {profile.at_zeta}, "
        f"P(zeta^-1) = {profile.at_zeta_inv}",
    ]
    if not payload["t_semisimple"]:
        lines.append("warning: rho(T) is not semisimple (logarithmic case); "
                     "the weight constraints may not apply")
    if args.enumerate_:
        try:
            candidates = _candidate_ks(rep.dimension, rep.epsilon, mult,
                                       args.kmin, args.kmax, args.sum_w)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        first = next(candidates, None)
        rows = _Candidates(rep.epsilon, chain([first], candidates))
        if args.format == "json":
            payload["candidate_multisets"] = rows if first else []
        else:
            lines.append(f"candidate weight multisets "
                         f"(k in [{args.kmin}, {args.kmax}]"
                         + (f", total weight {args.sum_w}" if args.sum_w is not None else "")
                         + "):")
            lines = chain(lines, rows.text_lines() if first else ["  none"])
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .suites import run_suite

    _check_order(args.order)
    result = run_suite(args.suite, order=args.order, seed=args.seed)
    lines = [f"{'PASS' if c.passed else 'FAIL'} {c.case_id}"
             + (f": {c.detail}" if not c.passed and c.detail else "")
             for c in result.cases]
    failed = [c for c in result.cases if not c.passed]
    lines.append(f"suite {result.suite}: {len(result.cases) - len(failed)}"
                 f"/{len(result.cases)} passed")
    if failed:
        first = failed[0]
        lines.append(f"first counterexample: {first.case_id} {first.detail}")
    # Only a JSON report reads the record; a text report would build it at
    # the run's peak memory for nothing.
    _emit(args, result.to_record() if args.format == "json" else {}, lines)
    return EXIT_OK if result.passed else EXIT_FAIL


def _check_det_size(weights, epsilon: int, order: int) -> None:
    """Refuse, before any work, declared weights whose scalar forms would
    expand past MAX_ORDER: the target delta^(sum of weights) and, for an even
    representation, the f_(-k) that push each generator to weight 0."""
    from .scalarforms import e4_e6_delta_order, gen_form_order

    if e4_e6_delta_order(sum(weights), order) > MAX_ORDER:
        # The sum itself may be too long to print.
        bound = 12 * (MAX_ORDER - e4_e6_delta_order(0, order)) + 11
        raise UsageError(f"the generator weights sum to more than {bound} in absolute "
                         f"value, so delta^sum expands past order {MAX_ORDER}")
    for w in weights if epsilon == 0 else ():
        need = gen_form_order(-(w // 2), order)
        if need > MAX_ORDER:
            raise UsageError(f"generator weight {w}: f:{-(w // 2)} expands to order {need}, "
                             f"above the ceiling {MAX_ORDER}")


def cmd_det(args) -> int:
    from .detlab import (check_generator_determinant, det_zero, generators_from_record,
                         series_hook, shifted_exterior_product)
    from .exactfield import MAX_FIELD_ORDER
    from .replib import load_rep

    _check_order(args.order)
    rep = _load(args.rep_path, load_rep)
    _, vectors = _load(args.gens_path, generators_from_record, series_hook)
    if len(vectors) != rep.dimension:
        raise UsageError(
            f"generators file has {len(vectors)} vectors but the "
            f"representation has dimension {rep.dimension}")
    for i, v in enumerate(vectors, 1):
        if len(v.components) != rep.dimension:
            raise UsageError(f"generator {i} has {len(v.components)} components but the "
                             f"representation has dimension {rep.dimension}")
    orders = sorted({c.order for v in vectors for c in v.components} - {1})
    if math.lcm(*orders) > MAX_FIELD_ORDER:
        raise UsageError(f"generator coefficients of cyclotomic orders {orders} combine to "
                         f"order {math.lcm(*orders)}, above the supported bound {MAX_FIELD_ORDER}")
    weights = [v.weight for v in vectors]
    _check_det_size(weights, rep.epsilon, args.order)
    report = check_generator_determinant(vectors, weights, args.order)
    payload = {
        "schema_version": 1,
        "rep": rep.name,
        "dimension": rep.dimension,
        "generator_weights": weights,
        "determinant_identity": report.determinant_matches,
        "weight_sum": report.weight_sum,
        "weight_sum_nonneg": report.weight_sum_nonneg,
        "leading_coefficient": report.leading_coefficient.to_record(),
        "det_zero_match": None,
    }
    lines = [
        f"generators of {rep.name}: weights {weights}",
        f"exterior product = K * delta^{report.weight_sum} with "
        f"K = {report.leading_coefficient}: "
        f"{'ok' if report.determinant_matches else 'MISMATCH'}",
        f"weight sum {report.weight_sum} >= 0: "
        f"{'ok' if report.weight_sum_nonneg else 'VIOLATED'}",
    ]
    ok = report.passed
    if rep.epsilon == 0:
        if any((w - rep.epsilon) % 2 for w in weights):
            raise UsageError("generator weights must match the parity of the representation")
        ks = [(w - rep.epsilon) // 2 for w in weights]
        weak = shifted_exterior_product(report.exterior, vectors, ks, 0, args.order)
        match = det_zero(rep, args.order).agrees_with(weak.normalized)
        payload["det_zero_match"] = match
        lines.append(f"weight-0 determinant vs multiplicity formula: "
                     f"{'ok' if match else 'MISMATCH'}")
        ok = ok and match
    _emit(args, payload, lines)
    return EXIT_OK if ok else EXIT_FAIL


# The module each subcommand runs.  main() imports it before building the
# parser: building the parser first raised the peak resident memory of
# ``verify scalar --order 256`` by about 0.25 MiB.
COMMAND_MODULES = {"series": "scalarforms", "analyze": "weightcalc",
                   "verify": "suites", "det": "detlab"}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] in COMMAND_MODULES:
        importlib.import_module(f".{COMMAND_MODULES[argv[0]]}", __package__)
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except VvmfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


def __getattr__(name: str):
    # perfbench's tracing test reads vvmf.cli.exterior_product; it is looked
    # up in vvmf.detlab on every access, so it is whatever detlab holds.
    if name == "exterior_product":
        from .detlab import exterior_product
        return exterior_product
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


if __name__ == "__main__":
    sys.exit(main())
