"""Command-line front end: generators, dimension reports, compression
verification, the exact minimum-size oracle, disambiguation extraction, and
the coloring pipeline, all as reproducible runs with machine-readable
reports.

Exit codes: 0 success, 1 certified-property violation (e.g. an invalid
scheme), 2 usage error, 3 resource-budget error.  Identical invocations
(including --seed) produce byte-identical output; reports are UTF-8 JSON or
CSV with LF line endings.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
from pathlib import Path
from typing import Optional, Sequence

from conceptlab.compression import (
    CompressionScheme,
    SchemeReport,
    TableScheme,
    boosted_scheme,
    counting_bound,
    extract_disambiguation,
    min_compression_certificate,
    star_biclique_scheme,
    verify_scheme,
)
from conceptlab.constructions import (
    biclique_class,
    disjoint_pairs_family,
    graph_dim_blowup_example,
    haussler_long_class,
    star_partition,
    unique_label_disambiguation,
)
from conceptlab.core import (
    ConceptClass,
    dual,
    dumps_class,
    is_nonnegative_int,
    loads_class,
    parse_json,
    union_disjoint,
)
from conceptlab.dimensions import ShatterKind, dimension
from conceptlab.errors import (
    BudgetError,
    ContractViolationError,
    ConvergenceError,
    RealizabilityError,
)
from conceptlab.lowerbound import check_pipeline_size, pipeline_certificate
from conceptlab.random_classes import random_partial_class, random_total_class

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_text(data: object) -> str:
    """The package's own report as JSON.  Counting bounds can have more
    digits than the interpreter's int-to-string limit, so the limit is
    lifted while the report is serialized and restored afterwards; it stays
    in force whenever input is parsed."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # Python 3.10 has no limit
        return json.dumps(data, indent=2) + "\n"
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return json.dumps(data, indent=2) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)


def _load_class(path: str) -> ConceptClass:
    return loads_class(Path(path).read_text(encoding="utf-8"))


def report_table(results: Sequence[SchemeReport]) -> str:
    """CSV table of verification reports, one row per sample size."""
    if not results:
        raise ValueError("report_table needs at least one report")
    lines = ["m,k_of_m,samples_checked,valid"]
    for rep in sorted(results, key=lambda r: r.m):
        valid = "unknown" if rep.valid is None else str(rep.valid).lower()
        lines.append(f"{rep.m},{rep.k_of_m},{rep.samples_checked},{valid}")
    return "\n".join(lines) + "\n"


def _gen(args: argparse.Namespace) -> int:
    family = args.family
    if family == "biclique":
        ts = args.t or []
        if not ts:
            raise ValueError("--family biclique requires at least one --t")
        blocks = [biclique_class(star_partition(t)) for t in ts]
        cls = blocks[0] if len(blocks) == 1 else union_disjoint(blocks)
    elif family == "disjoint-pairs":
        if args.rows is None:
            raise ValueError("--family disjoint-pairs requires --rows")
        cls = disjoint_pairs_family(args.rows)
    elif family == "haussler-long":
        if None in (args.points, args.labels, args.max_nonzero):
            raise ValueError(
                "--family haussler-long requires --points, --labels, --max-nonzero"
            )
        cls = haussler_long_class(args.points, args.labels, args.max_nonzero)
    elif family == "gdim-blowup-partial":
        cls = graph_dim_blowup_example()[0]
    elif family == "gdim-blowup-total":
        cls = graph_dim_blowup_example()[1]
    else:  # random, the last of the parser's choices
        if None in (args.points, args.concepts, args.labels):
            raise ValueError(
                "--family random requires --points, --concepts, --labels"
            )
        rng = random.Random(args.seed)
        if args.partial:
            cls = random_partial_class(
                rng, args.points, args.concepts, args.labels, args.star_prob
            )
        else:
            cls = random_total_class(rng, args.points, args.concepts, args.labels)
    if args.disambiguate:
        cls = unique_label_disambiguation(cls)
    _emit(dumps_class(cls), args.out)
    return EXIT_OK


def _dim(args: argparse.Namespace) -> int:
    """Exit 3 from the subset budget still prints the completed lower bound
    and its witness (``dimension`` null)."""
    cls = _load_class(args.class_file)
    kind = ShatterKind(args.kind)
    target = dual(cls) if args.dual else cls
    cut = None
    try:
        result = dimension(target, kind)
    except BudgetError as exc:
        result, cut = exc.report["lower_bound"], exc
    verified = (
        result.witness.verify(target) if result.witness is not None else None
    )
    payload = {
        "class": args.class_file,
        "kind": kind.value,
        "dual": bool(args.dual),
        "dimension": result.value if cut is None else None,
        "witness": result.witness.to_json() if result.witness else None,
        "witness_verified": verified,
    }
    if cut is not None:
        payload.update(
            lower_bound=result.value, budget_exhausted_at_d=cut.report["level"]
        )
    _emit(_json_text(payload), args.out)
    if cut is not None:
        raise cut
    if verified is False:
        return EXIT_CONTRACT
    return EXIT_OK


def _make_scheme(
    spec: str, cls: ConceptClass, subsample_size: Optional[int]
) -> CompressionScheme:
    if spec == "boosted":
        return boosted_scheme(cls, subsample_size)
    if spec == "star":
        return star_biclique_scheme(cls.domain_size + 1)
    if spec.startswith("file:"):
        path = spec[len("file:") :]
        data = parse_json(Path(path).read_text(encoding="utf-8"))
        return TableScheme.from_json(data).as_scheme(name=path)
    raise ValueError(f"unknown scheme {spec!r} (use boosted, star, or file:PATH)")


def _verify_compression(args: argparse.Namespace) -> int:
    """Exit 3 still prints the reports: every completed size, then the one
    a budget cut short (valid null)."""
    cls = _load_class(args.class_file)
    scheme = _make_scheme(args.scheme, cls, args.subsample_size)
    reports = []
    cut = None
    for m in args.m:
        try:
            reports.append(verify_scheme(cls, scheme, m, sample_budget=args.budget))
        except BudgetError as exc:
            reports.append(exc.report)
            cut = exc
            break
    payload = {
        "class": args.class_file,
        "scheme": scheme.name,
        "reports": [rep.to_json() for rep in reports],
    }
    if args.csv:
        Path(args.csv).write_text(report_table(reports), encoding="utf-8")
    _emit(_json_text(payload), args.out)
    if cut is not None:
        raise cut
    if not all(rep.valid for rep in reports):
        return EXIT_CONTRACT
    return EXIT_OK


def _min_compression(args: argparse.Namespace) -> int:
    """Exit 3 from the key-list or node budget still prints the k-levels
    refuted so far (``k`` and ``certificate_valid`` null)."""
    cls = _load_class(args.class_file)
    payload = {"class": args.class_file, "m": args.m, "bit_budget": args.bits}
    try:
        k, table = min_compression_certificate(cls, args.m, args.bits)
    except BudgetError as exc:
        if exc.report is not None:
            payload.update(
                k=None,
                certificate_valid=None,
                budget_exhausted_at_k=exc.report["k"],
                refuted=exc.report["refuted"],
            )
            _emit(_json_text(payload), args.out)
        raise
    replay = verify_scheme(cls, table.as_scheme("min-compression"), args.m)
    payload.update(k=k, certificate_valid=replay.valid)
    if args.certificate:
        Path(args.certificate).write_text(
            _json_text(table.to_json()), encoding="utf-8"
        )
    _emit(_json_text(payload), args.out)
    if replay.valid is False:
        return EXIT_CONTRACT
    return EXIT_OK


def _extract_disambiguation(args: argparse.Namespace) -> int:
    """Exit 3 from the key budget still prints the summary (``size``
    null), and so does exit 3 from a counting bound past its bit budget
    (``counting_bound`` null)."""
    cls = _load_class(args.class_file)
    scheme = _make_scheme(args.scheme, cls, None)
    extracted = cut = None
    try:
        extracted = extract_disambiguation(cls, scheme, args.k, args.bits)
    except BudgetError as exc:
        cut = exc
    summary = {
        "class": args.class_file,
        "scheme": scheme.name,
        "k": args.k,
        "bit_budget": args.bits,
        "size": None if cut is not None else extracted.n_concepts,
        "counting_bound": None,
    }
    try:
        summary["counting_bound"] = counting_bound(
            len(cls.support_indices()), len(cls.labels_used()), args.k, args.bits
        )
    except BudgetError as exc:
        cut = cut or exc
    if cut is None and args.class_out:
        Path(args.class_out).write_text(dumps_class(extracted), encoding="utf-8")
    _emit(_json_text(summary), args.out)
    if cut is not None:
        raise cut
    return EXIT_OK


def _pipeline(args: argparse.Namespace) -> int:
    """Exit 3 past the chromatic cap still prints the fields known before
    the search (``chromatic_floor`` null), for every scheme and before the
    scheme is built, and so does exit 3 from a counting ceiling past its
    bit budget (``counting_ceiling`` null too); exit 3 from the extraction
    key budget prints every field known by then (``disambiguation_size``
    null)."""
    t = args.t
    try:
        check_pipeline_size(t, args.k, args.bits)
        if args.scheme == "builtin":
            scheme = star_biclique_scheme(t)
        else:
            cls = biclique_class(star_partition(t))
            scheme = _make_scheme(args.scheme, cls, None)
        report = pipeline_certificate(t, scheme, args.k, args.bits)
    except BudgetError as exc:
        _emit(_json_text(exc.report), args.out)
        raise
    _emit(_json_text(report.to_json()), args.out)
    return EXIT_OK if report.ok else EXIT_CONTRACT


def _report_from_json(raw: object) -> SchemeReport:
    """One entry of a verify-compression ``reports`` array; ValueError
    unless it is an object whose sizes are non-negative integers and whose
    ``valid`` is true, false or null."""
    if not isinstance(raw, dict):
        raise ValueError(f"report must be an object, got {raw!r}")
    for name in ("m", "k_of_m", "samples_checked"):
        if not is_nonnegative_int(raw.get(name)):
            raise ValueError(f"report {name!r} must be a non-negative integer")
    if "valid" not in raw or not (
        raw["valid"] is None or isinstance(raw["valid"], bool)
    ):
        raise ValueError("report 'valid' must be true, false or null")
    return SchemeReport(
        valid=raw["valid"],
        m=raw["m"],
        k_of_m=raw["k_of_m"],
        failures=(),
        samples_checked=raw["samples_checked"],
    )


def _report(args: argparse.Namespace) -> int:
    reports: list[SchemeReport] = []
    for path in args.files:
        data = parse_json(Path(path).read_text(encoding="utf-8"))
        raws = data.get("reports") if isinstance(data, dict) else None
        if not isinstance(raws, list):
            raise ValueError(f"{path}: 'reports' must be an array")
        reports.extend(_report_from_json(raw) for raw in raws)
    _emit(report_table(reports), args.out)
    return EXIT_OK


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built at the first ``main`` call and reused by every
    later one in the process (its ``prog`` is fixed)."""
    parser = argparse.ArgumentParser(
        prog="conceptlab",
        description="exact dimension, compression, and coloring certificates "
        "for finite multiclass concept classes",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    gen = sub.add_parser("gen", help="emit a class file for a named family")
    gen.add_argument(
        "--family",
        required=True,
        choices=[
            "biclique",
            "disjoint-pairs",
            "haussler-long",
            "gdim-blowup-partial",
            "gdim-blowup-total",
            "random",
        ],
    )
    gen.add_argument(
        "--t",
        type=int,
        action="append",
        help="complete-graph size; repeat for a disjoint union of blocks",
    )
    gen.add_argument("--rows", type=int)
    gen.add_argument("--points", type=int)
    gen.add_argument("--labels", type=int)
    gen.add_argument("--max-nonzero", type=int, dest="max_nonzero")
    gen.add_argument("--concepts", type=int)
    gen.add_argument("--partial", action="store_true")
    gen.add_argument("--star-prob", type=float, default=0.3, dest="star_prob")
    gen.add_argument("--disambiguate", action="store_true")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out")
    gen.set_defaults(run=_gen)

    dim = sub.add_parser("dim", help="compute a dimension with witness")
    dim.add_argument("--class", required=True, dest="class_file")
    dim.add_argument(
        "--kind", required=True, choices=[k.value for k in ShatterKind]
    )
    dim.add_argument("--dual", action="store_true")
    dim.add_argument("--out")
    dim.set_defaults(run=_dim)

    ver = sub.add_parser(
        "verify-compression", help="exhaustively verify a scheme at sizes m"
    )
    ver.add_argument("--class", required=True, dest="class_file")
    ver.add_argument("--scheme", default="boosted")
    ver.add_argument("--m", type=int, action="append", required=True)
    ver.add_argument("--subsample-size", type=int, dest="subsample_size")
    ver.add_argument("--budget", type=int)
    ver.add_argument("--csv", help="also write the k(m) table as CSV")
    ver.add_argument("--out")
    ver.set_defaults(run=_verify_compression)

    mi = sub.add_parser(
        "min-compression", help="exact smallest subsample size at a bit budget"
    )
    mi.add_argument("--class", required=True, dest="class_file")
    mi.add_argument("--m", type=int, required=True)
    mi.add_argument("--bits", type=int, required=True)
    mi.add_argument("--certificate", help="write the witness scheme as JSON")
    mi.add_argument("--out")
    mi.set_defaults(run=_min_compression)

    ex = sub.add_parser(
        "extract-disambiguation",
        help="collect reconstructions over the key space and check coverage",
    )
    ex.add_argument("--class", required=True, dest="class_file")
    ex.add_argument("--scheme", default="star")
    ex.add_argument("--k", type=int, required=True)
    ex.add_argument("--bits", type=int, required=True)
    ex.add_argument("--class-out", dest="class_out")
    ex.add_argument("--out")
    ex.set_defaults(run=_extract_disambiguation)

    pi = sub.add_parser(
        "pipeline", help="chromatic-floor/counting-ceiling certificate on K_t"
    )
    pi.add_argument("--t", type=int, required=True)
    pi.add_argument("--k", type=int, required=True)
    pi.add_argument("--bits", type=int, required=True)
    pi.add_argument("--scheme", default="builtin")
    pi.add_argument("--out")
    pi.set_defaults(run=_pipeline)

    rep = sub.add_parser("report", help="merge verification JSONs into CSV")
    rep.add_argument("files", nargs="+")
    rep.add_argument("--out")
    rep.set_defaults(run=_report)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ContractViolationError, RealizabilityError, ConvergenceError) as exc:
        print(f"contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
