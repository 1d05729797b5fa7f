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
import json
import random
import sys
from dataclasses import dataclass
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
    loads_class,
    union_disjoint,
)
from conceptlab.dimensions import ShatterKind, dimension
from conceptlab.errors import (
    BudgetError,
    ContractViolationError,
    ConvergenceError,
    RealizabilityError,
)
from conceptlab.lowerbound import pipeline_certificate
from conceptlab.random_classes import random_partial_class, random_total_class

EXIT_OK = 0
EXIT_CONTRACT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


@dataclass(frozen=True)
class RunConfig:
    """One reproducible invocation: subcommand plus its parameter map."""

    subcommand: str
    params: dict
    out: Optional[str] = None
    seed: int = 0


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _json_text(data: object) -> str:
    return json.dumps(data, indent=2) + "\n"


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


def _gen(config: RunConfig) -> int:
    p = config.params
    family = p["family"]
    if family == "biclique":
        ts = p["t"] or []
        if not ts:
            raise ValueError("--family biclique requires at least one --t")
        blocks = [biclique_class(star_partition(t)) for t in ts]
        cls = blocks[0] if len(blocks) == 1 else union_disjoint(blocks)
    elif family == "disjoint-pairs":
        if p["rows"] is None:
            raise ValueError("--family disjoint-pairs requires --rows")
        cls = disjoint_pairs_family(p["rows"])
    elif family == "haussler-long":
        if None in (p["points"], p["labels"], p["max_nonzero"]):
            raise ValueError(
                "--family haussler-long requires --points, --labels, --max-nonzero"
            )
        cls = haussler_long_class(p["points"], p["labels"], p["max_nonzero"])
    elif family == "gdim-blowup-partial":
        cls = graph_dim_blowup_example()[0]
    elif family == "gdim-blowup-total":
        cls = graph_dim_blowup_example()[1]
    elif family == "random":
        if None in (p["points"], p["concepts"], p["labels"]):
            raise ValueError(
                "--family random requires --points, --concepts, --labels"
            )
        rng = random.Random(config.seed)
        if p["partial"]:
            cls = random_partial_class(
                rng, p["points"], p["concepts"], p["labels"], p["star_prob"]
            )
        else:
            cls = random_total_class(rng, p["points"], p["concepts"], p["labels"])
    else:
        raise ValueError(f"unknown family {family!r}")
    if p["disambiguate"]:
        cls = unique_label_disambiguation(cls)
    _emit(dumps_class(cls), config.out)
    return EXIT_OK


def _dim(config: RunConfig) -> int:
    p = config.params
    cls = _load_class(p["class_file"])
    kind = ShatterKind(p["kind"])
    target = dual(cls) if p["dual"] else cls
    result = dimension(target, kind)
    verified = (
        result.witness.verify(target) if result.witness is not None else None
    )
    payload = {
        "class": p["class_file"],
        "kind": kind.value,
        "dual": bool(p["dual"]),
        "dimension": result.value,
        "witness": result.witness.to_json() if result.witness else None,
        "witness_verified": verified,
    }
    _emit(_json_text(payload), config.out)
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
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return TableScheme.from_json(data).as_scheme(name=path)
    raise ValueError(f"unknown scheme {spec!r} (use boosted, star, or file:PATH)")


def _verify_compression(config: RunConfig) -> int:
    p = config.params
    cls = _load_class(p["class_file"])
    scheme = _make_scheme(p["scheme"], cls, p["subsample_size"])
    reports = [
        verify_scheme(cls, scheme, m, sample_budget=p["budget"]) for m in p["m"]
    ]
    payload = {
        "class": p["class_file"],
        "scheme": scheme.name,
        "reports": [rep.to_json() for rep in reports],
    }
    _emit(_json_text(payload), config.out)
    if p["csv"]:
        Path(p["csv"]).write_text(report_table(reports), encoding="utf-8")
    if not all(rep.valid for rep in reports):
        return EXIT_CONTRACT
    return EXIT_OK


def _min_compression(config: RunConfig) -> int:
    p = config.params
    cls = _load_class(p["class_file"])
    k, table = min_compression_certificate(cls, p["m"], p["bits"])
    certificate_valid = None
    if table is not None:
        replay = verify_scheme(cls, table.as_scheme("min-compression"), p["m"])
        certificate_valid = replay.valid
    payload = {
        "class": p["class_file"],
        "m": p["m"],
        "bit_budget": p["bits"],
        "k": k if isinstance(k, int) else "unbounded",
        "certificate_valid": certificate_valid,
    }
    _emit(_json_text(payload), config.out)
    if p["certificate"] and table is not None:
        Path(p["certificate"]).write_text(
            _json_text(table.to_json()), encoding="utf-8"
        )
    if certificate_valid is False:
        return EXIT_CONTRACT
    return EXIT_OK


def _extract_disambiguation(config: RunConfig) -> int:
    p = config.params
    cls = _load_class(p["class_file"])
    scheme = _make_scheme(p["scheme"], cls, p["subsample_size"])
    extracted = extract_disambiguation(cls, scheme, p["k"], p["bits"])
    summary = {
        "class": p["class_file"],
        "scheme": scheme.name,
        "k": p["k"],
        "bit_budget": p["bits"],
        "size": extracted.n_concepts,
        "counting_bound": counting_bound(
            len(cls.support_indices()), len(cls.labels_used()), p["k"], p["bits"]
        ),
    }
    if p["class_out"]:
        Path(p["class_out"]).write_text(dumps_class(extracted), encoding="utf-8")
    _emit(_json_text(summary), config.out)
    return EXIT_OK


def _pipeline(config: RunConfig) -> int:
    p = config.params
    t = p["t"]
    if p["scheme"] == "builtin":
        scheme = star_biclique_scheme(t)
    else:
        cls = biclique_class(star_partition(t))
        scheme = _make_scheme(p["scheme"], cls, None)
    report = pipeline_certificate(t, scheme, p["k"], p["bits"])
    _emit(_json_text(report.to_json()), config.out)
    return EXIT_OK if report.ok else EXIT_CONTRACT


def _report(config: RunConfig) -> int:
    p = config.params
    reports: list[SchemeReport] = []
    for path in p["files"]:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        for raw in data.get("reports", []):
            reports.append(
                SchemeReport(
                    valid=raw["valid"],
                    m=raw["m"],
                    k_of_m=raw["k_of_m"],
                    failures=(),
                    samples_checked=raw["samples_checked"],
                )
            )
    text = report_table(reports)
    _emit(text, config.out)
    return EXIT_OK


_HANDLERS = {
    "gen": _gen,
    "dim": _dim,
    "verify-compression": _verify_compression,
    "min-compression": _min_compression,
    "extract-disambiguation": _extract_disambiguation,
    "pipeline": _pipeline,
    "report": _report,
}


def run(config: RunConfig) -> int:
    """Execute one subcommand; returns the process exit code."""
    return _HANDLERS[config.subcommand](config)


def _build_parser() -> argparse.ArgumentParser:
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

    dim = sub.add_parser("dim", help="compute a dimension with witness")
    dim.add_argument("--class", required=True, dest="class_file")
    dim.add_argument(
        "--kind", required=True, choices=[k.value for k in ShatterKind]
    )
    dim.add_argument("--dual", action="store_true")
    dim.add_argument("--out")

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

    mi = sub.add_parser(
        "min-compression", help="exact smallest subsample size at a bit budget"
    )
    mi.add_argument("--class", required=True, dest="class_file")
    mi.add_argument("--m", type=int, required=True)
    mi.add_argument("--bits", type=int, required=True)
    mi.add_argument("--certificate", help="write the witness scheme as JSON")
    mi.add_argument("--out")

    ex = sub.add_parser(
        "extract-disambiguation",
        help="collect reconstructions over the key space and check coverage",
    )
    ex.add_argument("--class", required=True, dest="class_file")
    ex.add_argument("--scheme", default="star")
    ex.add_argument("--k", type=int, required=True)
    ex.add_argument("--bits", type=int, required=True)
    ex.add_argument("--subsample-size", type=int, dest="subsample_size")
    ex.add_argument("--class-out", dest="class_out")
    ex.add_argument("--out")

    pi = sub.add_parser(
        "pipeline", help="chromatic-floor/counting-ceiling certificate on K_t"
    )
    pi.add_argument("--t", type=int, required=True)
    pi.add_argument("--k", type=int, required=True)
    pi.add_argument("--bits", type=int, required=True)
    pi.add_argument("--scheme", default="builtin")
    pi.add_argument("--out")

    rep = sub.add_parser("report", help="merge verification JSONs into CSV")
    rep.add_argument("files", nargs="+")
    rep.add_argument("--out")

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    params = {
        k: v
        for k, v in vars(args).items()
        if k not in ("subcommand", "out", "seed")
    }
    return RunConfig(
        subcommand=args.subcommand,
        params=params,
        out=getattr(args, "out", None),
        seed=getattr(args, "seed", 0),
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(args)
    try:
        return run(config)
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
