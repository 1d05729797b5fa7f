"""CLI surface: generators, reports, exit codes, and byte-level
reproducibility."""

import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import conceptlab
from conceptlab.cli import main, report_table
from conceptlab.compression import SchemeReport, counting_bound
from conceptlab.constructions import graph_dim_blowup_example
from conceptlab.core import (
    ClassKind,
    ConceptClass,
    dumps_class,
    enumerate_realizable_samples,
    loads_class,
)

PKG_ROOT = str(Path(conceptlab.__file__).resolve().parent.parent)
SUBPROCESS_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join(
        [PKG_ROOT, os.environ.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep),
)


def run_cli(*args):
    return main(list(args))


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestGen:
    def test_biclique_shape(self, tmp_path, capsys):
        assert run_cli("gen", "--family", "biclique", "--t", "4") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["domain_size"] == 3
        assert len(data["concepts"]) == 4

    def test_emitted_files_reparse_canonically(self, tmp_path):
        out = tmp_path / "cls.json"
        run_cli(
            "gen", "--family", "haussler-long", "--points", "3",
            "--labels", "3", "--max-nonzero", "2", "--out", str(out),
        )
        text = out.read_text(encoding="utf-8")
        cls = loads_class(text)
        from conceptlab.core import dumps_class

        assert dumps_class(cls) == text

    def test_union_and_disambiguate_flags(self, tmp_path, capsys):
        assert (
            run_cli(
                "gen", "--family", "biclique", "--t", "3", "--t", "4",
                "--disambiguate",
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["domain_size"] == 5
        assert data["kind"] == "total"
        assert len(data["concepts"]) == 7

    def test_usage_error_exit_code(self, capsys):
        assert run_cli("gen", "--family", "biclique") == 2

    def test_random_is_seed_deterministic(self, capsys):
        args = (
            "gen", "--family", "random", "--points", "4", "--concepts", "5",
            "--labels", "3", "--seed", "9",
        )
        assert run_cli(*args) == 0
        first = capsys.readouterr().out
        assert run_cli(*args) == 0
        assert capsys.readouterr().out == first


class TestStarProbability:
    @pytest.mark.parametrize("p", ["2", "-0.5", "nan"])
    def test_outside_the_unit_interval_is_a_usage_error(self, p, capsys):
        code = run_cli(
            "gen", "--family", "random", "--partial", "--points", "3",
            "--concepts", "4", "--labels", "2", "--star-prob", p,
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "usage error: star probability must be in [0, 1]"
        )


class TestPinnedBytes:
    """SHA-256 digests of whole outputs: the seeded generators, the key
    search's certificates and the dimension reports keep every byte.  Runs
    use relative file names in a scratch directory, so the echoed class path
    is part of the pinned bytes."""

    RANDOM_GEN = {
        (0, False): "a4e2de8b76e54833086c0eda118813e50b56d60f9eed6d8386dde3ba05d2cd82",
        (0, True): "74ec45eabf3eff660bfe0a1727796a8aaa7b00c2f3528332f627b1d47145bee0",
        (1, False): "9b07265f035f796566694872789a575ed8eb529bee8e3253f95ec0a76a437d15",
        (1, True): "dba4a0d78d829daedebac84014b9ee5dad5efa0dc236a32575233df63b4e9c2b",
        (2, False): "1cd411535e929a86675b9746dcf1097efd3a048b8149c4a49b226bb2e7c5b943",
        (2, True): "410b30d8612c05977c486c6fca5d505a40a055891475bb401aba412c8c8d5516",
        (3, False): "519985d92300d7bea383b3fdb93b864687272734c3ee79f90f9bb6a562ea6823",
        (3, True): "28af4f96f7f6e2c53d9a150c7209c15cb589f9e25efbddb8e06b535485879887",
    }

    # (class file, --bits): (stdout digest, certificate digest), at m = 3
    MIN_COMPRESSION = {
        ("hl.json", 0): (
            "8cca55726a45c1485f20fad5127544898cc64635706491ad8d77d836b5402b0d",
            "ef320a91439603d9cc01f51eb5c2cb92b042237faffe08a4fcda8bca9e1f063d",
        ),
        ("hl.json", 1): (
            "68f1c9290493538dd1a5a1d993ea04ac5ee80ed2e7ad2b4ecf4cd1138d794ef3",
            "840a0c670bf43a5dd06ceddd3a6bd848d1915de9753228ba2da7b214889141d3",
        ),
        ("b5.json", 0): (
            "03a2ebd51ff5f042114d8673afb2966ccff0784d0f84e03d6407e3d1c2213b4d",
            "bb71d4a237a7c3b8c219e6edfd5274941ba02bedd2577e47312639b91dbf466f",
        ),
        ("b5.json", 1): (
            "babfefb30981b66b425adaea5cb272d86dc5eaf72da7eb27131259b40968eab2",
            "bc790fb73ac2864c17edc59290b1ab22687f08e2a8586f38023c59ef1a61c0c1",
        ),
    }

    # (class file, --kind): (stdout digest, dimension)
    DIM = {
        ("hl.json", "vc"): (
            "b70dc7689040fb909bb34f23cc8809e07cdf72adf0573ddfddecb0f55b01ba38", 2
        ),
        ("hl.json", "natarajan"): (
            "3a6a6deafb95852f2c06fdc4e7c425b57829b433aeaa8154b80ebeef74121795", 2
        ),
        ("hl.json", "graph"): (
            "6a83b29b16bd4fe69afb245d5a3aabd1f74273c6bb3ad66b9a49ddf1b493ecd7", 2
        ),
        ("gb.json", "natarajan"): (
            "ecaf889225225d3830df95e8d1934e9c7ef6c5cff46779c7ebaf66310bb7da44", 1
        ),
        ("gb.json", "graph"): (
            "a0bf9eb93430638504889bd90e232baf4fc0f487877b7628f55c050fee5cdd41", 3
        ),
    }

    @pytest.fixture()
    def workdir(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in (
            ["--family", "haussler-long", "--points", "3", "--labels", "2",
             "--max-nonzero", "2", "--out", "hl.json"],
            ["--family", "biclique", "--t", "5", "--out", "b5.json"],
            ["--family", "gdim-blowup-total", "--out", "gb.json"],
        ):
            assert run_cli("gen", *argv) == 0
        return tmp_path

    @pytest.mark.parametrize("seed, partial", sorted(RANDOM_GEN))
    def test_random_classes(self, seed, partial, capsys):
        argv = [
            "gen", "--family", "random", "--points", "4", "--concepts", "6",
            "--labels", "3", "--seed", str(seed),
        ]
        assert run_cli(*argv, *(["--partial"] if partial else [])) == 0
        assert sha256(capsys.readouterr().out) == self.RANDOM_GEN[seed, partial]

    @pytest.mark.parametrize("name, bits", sorted(MIN_COMPRESSION))
    def test_min_compression_certificates(self, workdir, name, bits, capsys):
        code = run_cli(
            "min-compression", "--class", name, "--m", "3", "--bits", str(bits),
            "--certificate", "cert.json",
        )
        assert code == 0
        out = capsys.readouterr().out
        assert json.loads(out)["certificate_valid"] is True
        certificate = (workdir / "cert.json").read_text(encoding="utf-8")
        assert (sha256(out), sha256(certificate)) == self.MIN_COMPRESSION[name, bits]

    @pytest.mark.parametrize("name, kind", sorted(DIM))
    def test_dimension_reports_with_verified_witnesses(
        self, workdir, name, kind, capsys
    ):
        assert run_cli("dim", "--class", name, "--kind", kind) == 0
        out = capsys.readouterr().out
        data = json.loads(out)
        assert data["witness"]["kind"] == kind
        assert data["witness_verified"] is True
        assert (sha256(out), data["dimension"]) == self.DIM[name, kind]

    @pytest.mark.parametrize("t", [3, 4, 5, 6])
    def test_pipeline_star_scheme_matches_the_builtin(self, t, capsys):
        argv = ["pipeline", "--t", str(t), "--k", "1", "--bits", "1"]
        assert run_cli(*argv) == 0
        builtin = capsys.readouterr().out
        assert run_cli(*argv, "--scheme", "star") == 0
        assert capsys.readouterr().out == builtin


class TestDim:
    @pytest.fixture()
    def pairs_file(self, tmp_path):
        out = tmp_path / "pairs.json"
        run_cli("gen", "--family", "disjoint-pairs", "--rows", "2", "--out", str(out))
        return out

    def test_primal(self, pairs_file, capsys):
        assert run_cli("dim", "--class", str(pairs_file), "--kind", "ds") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dimension"] == 1
        assert data["witness_verified"] is True

    def test_dual(self, pairs_file, capsys):
        assert (
            run_cli("dim", "--class", str(pairs_file), "--kind", "ds", "--dual")
            == 0
        )
        assert json.loads(capsys.readouterr().out)["dimension"] == 2

    @pytest.mark.parametrize(
        "shatter_kind, domain_size, kind, concepts, code, message",
        [
            ("natarajan", 2, "partial", [["*", "*"]], 2,
             "Natarajan shattering is defined for total classes only"),
            ("graph", 2, "partial", [[0, 1]], 2,
             "graph shattering is defined for total classes only"),
            ("vc", 2, "total", [[0, 2]], 2,
             "VC shattering needs labels within {0, 1}, class uses [0, 2]"),
            ("graph", 0, "partial", [[]], 0, None),
        ],
        ids=["natarajan-all-star", "graph-one-concept", "vc-label-2",
             "graph-zero-points"],
    )
    def test_kind_that_does_not_apply(
        self, tmp_path, capsys, shatter_kind, domain_size, kind, concepts,
        code, message,
    ):
        # classes whose every subset the shared-label bound skips still get
        # the exit code and message of the kind's checker
        path = tmp_path / "cls.json"
        doc = {"domain_size": domain_size, "kind": kind, "concepts": concepts}
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("dim", "--class", str(path), "--kind", shatter_kind) == code
        captured = capsys.readouterr()
        if message is None:
            assert json.loads(captured.out)["dimension"] == 0
        else:
            assert captured.err == f"usage error: {message}\n"

    def test_witness_serialization_fields(self, pairs_file, capsys):
        run_cli("dim", "--class", str(pairs_file), "--kind", "ds")
        data = json.loads(capsys.readouterr().out)
        assert data["witness"]["kind"] == "ds"
        assert data["witness"]["indices"]
        assert data["witness"]["patterns"]

    @pytest.mark.parametrize(
        "doc",
        [
            {"domain_size": "3", "kind": "total", "concepts": [[0, 1, 2]]},
            {"domain_size": 1, "kind": "total", "concepts": [5]},
        ],
        ids=["string-domain-size", "non-array-row"],
    )
    def test_malformed_class_file_is_usage_error(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("dim", "--class", str(path), "--kind", "ds") == 2
        assert "usage error" in capsys.readouterr().err


class TestCompressionCommands:
    @pytest.fixture()
    def hl_file(self, tmp_path):
        out = tmp_path / "hl.json"
        run_cli(
            "gen", "--family", "haussler-long", "--points", "4",
            "--labels", "2", "--max-nonzero", "1", "--out", str(out),
        )
        return out

    def test_verify_compression_json_and_csv(self, hl_file, tmp_path, capsys):
        csv = tmp_path / "k.csv"
        code = run_cli(
            "verify-compression", "--class", str(hl_file), "--scheme",
            "boosted", "--m", "2", "--m", "3", "--csv", str(csv),
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert all(rep["valid"] for rep in data["reports"])
        lines = csv.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "m,k_of_m,samples_checked,valid"
        assert len(lines) == 3

    def test_min_compression(self, hl_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        code = run_cli(
            "min-compression", "--class", str(hl_file), "--m", "2",
            "--bits", "0", "--certificate", str(cert),
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["k"] == 1
        assert data["certificate_valid"] is True
        assert cert.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["min-compression", "--m", "2", "--bits", "0", "--certificate"],
            ["verify-compression", "--scheme", "boosted", "--m", "2", "--csv"],
        ],
        ids=["certificate", "csv"],
    )
    def test_unwritable_side_output_prints_no_report(
        self, hl_file, tmp_path, capsys, argv
    ):
        # the side file is written before the report, so exit 2 leaves
        # stdout empty
        code = run_cli(
            *argv, str(tmp_path / "missing" / "out"), "--class", str(hl_file)
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("usage error:")

    def test_extraction_takes_no_subsample_size(self, hl_file, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "extract-disambiguation", "--class", str(hl_file), "--k", "1",
                "--bits", "0", "--subsample-size", "1",
            )
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: --subsample-size 1" in captured.err

    def test_table_scheme_file_roundtrip(self, hl_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        run_cli(
            "min-compression", "--class", str(hl_file), "--m", "2",
            "--bits", "0", "--certificate", str(cert),
        )
        capsys.readouterr()
        code = run_cli(
            "verify-compression", "--class", str(hl_file), "--scheme",
            f"file:{cert}", "--m", "2",
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["reports"][0]["valid"]

    @pytest.mark.parametrize(
        "field, value", [("compress", 5), ("default", 7)],
        ids=["int-compress", "int-default"],
    )
    def test_malformed_table_scheme_is_usage_error(
        self, hl_file, tmp_path, capsys, field, value
    ):
        cert = tmp_path / "cert.json"
        run_cli(
            "min-compression", "--class", str(hl_file), "--m", "2",
            "--bits", "0", "--certificate", str(cert),
        )
        doc = json.loads(cert.read_text(encoding="utf-8"))
        doc[field] = value
        cert.write_text(json.dumps(doc), encoding="utf-8")
        capsys.readouterr()
        code = run_cli(
            "verify-compression", "--class", str(hl_file), "--scheme",
            f"file:{cert}", "--m", "2",
        )
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name, m, k",
        [("one-concept-12", 4, 0), ("haussler-long-5-3-2", 3, 2)],
    )
    def test_large_min_compression_is_deterministic(self, tmp_path, name, m, k):
        # 1,365 samples at k = 0 and 385 samples at k = 2; two processes
        # (different string hash seeds) write the same report and
        # certificate bytes
        cls_file = tmp_path / f"{name}.json"
        if name == "one-concept-12":
            doc = {"domain_size": 12, "kind": "total", "concepts": [[0] * 12]}
            cls_file.write_text(json.dumps(doc), encoding="utf-8")
        else:
            run_cli(
                "gen", "--family", "haussler-long", "--points", "5",
                "--labels", "3", "--max-nonzero", "2", "--out", str(cls_file),
            )
        cert = tmp_path / "cert.json"
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "conceptlab.cli", "min-compression",
                 "--class", str(cls_file), "--m", str(m), "--bits", "0",
                 "--certificate", str(cert)],
                capture_output=True,
                env=SUBPROCESS_ENV,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append((proc.stdout, cert.read_bytes()))
        assert runs[0] == runs[1]
        data = json.loads(runs[0][0])
        assert data["k"] == k
        assert data["certificate_valid"] is True

    def test_extract_disambiguation(self, tmp_path, capsys):
        cls_file = tmp_path / "b3.json"
        run_cli("gen", "--family", "biclique", "--t", "3", "--out", str(cls_file))
        out_file = tmp_path / "extracted.json"
        code = run_cli(
            "extract-disambiguation", "--class", str(cls_file), "--scheme",
            "star", "--k", "1", "--bits", "1", "--class-out", str(out_file),
        )
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["size"] >= 3
        extracted = loads_class(out_file.read_text(encoding="utf-8"))
        assert extracted.kind.value == "total"

    @pytest.mark.parametrize("k, bits", [("1", "-1"), ("-1", "1")])
    def test_negative_key_space_is_usage_error(self, tmp_path, capsys, k, bits):
        cls_file = tmp_path / "b3.json"
        run_cli("gen", "--family", "biclique", "--t", "3", "--out", str(cls_file))
        code = run_cli(
            "extract-disambiguation", "--class", str(cls_file), "--k", k,
            "--bits", bits,
        )
        assert code == 2
        captured = capsys.readouterr()
        assert "usage error" in captured.err
        assert captured.out == ""

    def test_invalid_scheme_exits_one(self, tmp_path, capsys):
        # the two-constant class cannot be served by a 0-entry scheme, and
        # the star scheme mislabels it
        cls_file = tmp_path / "two.json"
        cls_file.write_text(
            json.dumps(
                {
                    "domain_size": 2,
                    "kind": "total",
                    "concepts": [[0, 0], [1, 1]],
                }
            )
            + "\n",
            encoding="utf-8",
        )
        code = run_cli(
            "verify-compression", "--class", str(cls_file), "--scheme",
            "star", "--m", "2",
        )
        assert code == 1


class TestPipelineCommand:
    def test_feasible_certificate(self, capsys):
        assert run_cli("pipeline", "--t", "3", "--k", "1", "--bits", "1") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] and data["disambiguation_size"] == 3

    def test_infeasible_combination_reported(self, capsys):
        assert run_cli("pipeline", "--t", "4", "--k", "0", "--bits", "0") == 0
        data = json.loads(capsys.readouterr().out)
        assert data["feasible"] is False

    def test_budget_exit_code(self, capsys):
        assert run_cli("pipeline", "--t", "30", "--k", "1", "--bits", "1") == 3
        captured = capsys.readouterr()
        assert "budget error" in captured.err
        assert json.loads(captured.out) == {
            "t": 30,
            "n_parts": 29,
            "k": 1,
            "bit_budget": 1,
            "chromatic_floor": None,
            "counting_ceiling": 177,
        }


    def test_boosted_scheme_needs_a_total_class(self):
        # the pipeline's class is partial, so the boosted scheme is refused
        # before anything is replayed
        proc = subprocess.run(
            [sys.executable, "-m", "conceptlab.cli", "pipeline", "--t", "6",
             "--k", "1", "--bits", "0", "--scheme", "boosted"],
            capture_output=True,
            text=True,
            env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 2
        assert proc.stderr == "usage error: boosted schemes require a total class\n"
        assert proc.stdout == ""


class TestReport:
    def test_report_table_rows_sorted_by_m(self):
        reports = [
            SchemeReport(True, 3, 2, (), 10),
            SchemeReport(False, 2, 1, (), 6),
        ]
        text = report_table(reports)
        assert text.splitlines() == [
            "m,k_of_m,samples_checked,valid",
            "2,1,6,false",
            "3,2,10,true",
        ]

    def test_single_report_two_line_csv(self):
        text = report_table([SchemeReport(True, 2, 1, (), 3)])
        assert text == "m,k_of_m,samples_checked,valid\n2,1,3,true\n"

    def test_empty_list_is_a_usage_error(self):
        with pytest.raises(ValueError):
            report_table([])

    def test_report_subcommand_merges_files(self, tmp_path, capsys):
        cls_file = tmp_path / "hl.json"
        run_cli(
            "gen", "--family", "haussler-long", "--points", "3", "--labels",
            "2", "--max-nonzero", "1", "--out", str(cls_file),
        )
        v1 = tmp_path / "v1.json"
        run_cli(
            "verify-compression", "--class", str(cls_file), "--scheme",
            "boosted", "--m", "2", "--m", "3", "--out", str(v1),
        )
        capsys.readouterr()
        assert run_cli("report", str(v1)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "m,k_of_m,samples_checked,valid"
        assert len(lines) == 3


    @pytest.mark.parametrize(
        "doc",
        [
            [],
            {"reports": 5},
            {"reports": [5]},
            {"reports": [{"valid": True, "m": None, "k_of_m": 1, "samples_checked": 2}]},
            {"reports": [{"valid": True, "m": "x", "k_of_m": 1, "samples_checked": 2}]},
            {"reports": [{"valid": True, "m": 2, "k_of_m": -1, "samples_checked": 2}]},
            {"reports": [{"valid": True, "m": 2, "k_of_m": 1, "samples_checked": True}]},
            {"reports": [{"valid": "yes", "m": 2, "k_of_m": 1, "samples_checked": 2}]},
            {"reports": [{"valid": 1, "m": 2, "k_of_m": 1, "samples_checked": 2}]},
            {"reports": [{"m": 2, "k_of_m": 1, "samples_checked": 2}]},
        ],
        ids=[
            "array-document", "int-reports", "int-report", "null-m",
            "string-m", "negative-k", "bool-samples", "string-valid",
            "int-valid", "missing-valid",
        ],
    )
    def test_malformed_report_file_is_usage_error(self, tmp_path, capsys, doc):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert run_cli("report", str(path)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err


class TestBudgetEvidence:
    """Exit 3 prints what was done before the budget ran out."""

    def test_verify_compression_prints_completed_and_cut_reports(
        self, tmp_path, capsys
    ):
        # one concept over 60 points: 60 samples at m = 1, about 6.5e9 at
        # m = 8, so the budget of 100 cuts the second size short
        cls_file = tmp_path / "one.json"
        doc = {"domain_size": 60, "kind": "total", "concepts": [[0] * 60]}
        cls_file.write_text(json.dumps(doc), encoding="utf-8")
        code = run_cli(
            "verify-compression", "--class", str(cls_file), "--m", "1",
            "--m", "8", "--budget", "100",
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "budget error" in captured.err
        reports = json.loads(captured.out)["reports"]
        assert [(r["m"], r["valid"], r["samples_checked"]) for r in reports] == [
            (1, True, 60),
            (8, None, 100),
        ]

    def test_verify_compression_negative_budget_is_a_usage_error(
        self, tmp_path, capsys
    ):
        cls_file = tmp_path / "b4.json"
        run_cli("gen", "--family", "biclique", "--t", "4", "--out", str(cls_file))
        capsys.readouterr()
        argv = ("verify-compression", "--class", str(cls_file), "--scheme", "star",
                "--m", "2", "--budget")
        assert run_cli(*argv, "-1") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err
        assert run_cli(*argv, "0") == 3
        reports = json.loads(capsys.readouterr().out)["reports"]
        assert [(r["valid"], r["samples_checked"]) for r in reports] == [(None, 0)]

    def test_min_compression_prints_refuted_levels(
        self, tmp_path, capsys, monkeypatch
    ):
        import conceptlab.cli as cli
        from conceptlab.errors import BudgetError

        def exhausted(cls, m, bits):
            raise BudgetError(
                "node budget 10 exhausted at k=2; refuted k-levels: [0, 1]",
                report={"m": m, "bit_budget": bits, "k": 2, "refuted": [0, 1]},
            )

        monkeypatch.setattr(cli, "min_compression_certificate", exhausted)
        cls_file = tmp_path / "b4.json"
        run_cli("gen", "--family", "biclique", "--t", "4", "--out", str(cls_file))
        code = run_cli(
            "min-compression", "--class", str(cls_file), "--m", "3",
            "--bits", "0",
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "refuted k-levels: [0, 1]" in captured.err
        assert json.loads(captured.out) == {
            "class": str(cls_file),
            "m": 3,
            "bit_budget": 0,
            "k": None,
            "certificate_valid": None,
            "budget_exhausted_at_k": 2,
            "refuted": [0, 1],
        }

    def test_dim_prints_lower_bound_and_its_witness(
        self, tmp_path, capsys, monkeypatch
    ):
        import conceptlab.dimensions as dimensions
        from conceptlab.core import dual
        from conceptlab.dimensions import ShatterKind, ShatterWitness

        # the dual of disjoint-pairs-3 DS-shatters (0,), (0, 1) and (0, 1, 2):
        # a budget of two subsets completes d = 2 and cuts d = 3
        monkeypatch.setattr(dimensions, "SUBSET_BUDGET", 2)
        cls_file = tmp_path / "pairs.json"
        run_cli(
            "gen", "--family", "disjoint-pairs", "--rows", "3", "--out",
            str(cls_file),
        )
        code = run_cli("dim", "--class", str(cls_file), "--kind", "ds", "--dual")
        assert code == 3
        captured = capsys.readouterr()
        assert "budget error" in captured.err
        data = json.loads(captured.out)
        assert (data["dimension"], data["lower_bound"]) == (None, 2)
        assert data["budget_exhausted_at_d"] == 3
        assert data["witness_verified"] is True
        raw = data["witness"]
        witness = ShatterWitness(
            kind=ShatterKind(raw["kind"]),
            indices=tuple(raw["indices"]),
            patterns=tuple(map(tuple, raw["patterns"])),
            neighbors=tuple(
                tuple(map(tuple, per_pattern)) for per_pattern in raw["neighbors"]
            ),
        )
        assert witness.indices == (0, 1)
        target = dual(loads_class(cls_file.read_text(encoding="utf-8")))
        assert witness.verify(target)

    def test_sample_budget_without_report_prints_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        import conceptlab.cli as cli
        from conceptlab.errors import BudgetError

        def too_many(cls, m, bits):
            raise BudgetError("more than 20000 realizable samples of size 9")

        monkeypatch.setattr(cli, "min_compression_certificate", too_many)
        cls_file = tmp_path / "b4.json"
        run_cli("gen", "--family", "biclique", "--t", "4", "--out", str(cls_file))
        code = run_cli(
            "min-compression", "--class", str(cls_file), "--m", "9",
            "--bits", "0",
        )
        assert code == 3
        assert capsys.readouterr().out == ""

class TestProcessLevel:
    def test_module_entrypoint_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "conceptlab.cli", "gen", "--family",
             "biclique", "--t", "3"],
            capture_output=True,
            text=True,
            env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["domain_size"] == 2

    def test_byte_identical_pipeline_runs(self):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "conceptlab.cli", "pipeline", "--t",
                 "3", "--k", "1", "--bits", "1"],
                capture_output=True,
                env=SUBPROCESS_ENV,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_package_namespace_reexports_nothing(self):
        # each name has one import path, its own module; the package
        # namespace holds only what the benchmark reads, and importing
        # core loads no search module
        child = (
            "import sys, conceptlab\n"
            "print([n for n in sorted(vars(conceptlab)) if n[0] != '_'])\n"
            "import conceptlab.core\n"
            "print(sorted(m for m in sys.modules if m.startswith('conceptlab')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child],
            capture_output=True,
            text=True,
            env=SUBPROCESS_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        public, loaded = proc.stdout.splitlines()
        assert public == str(["KERNEL_BACKEND"])
        assert loaded == str(["conceptlab", "conceptlab.core", "conceptlab.errors"])


def _limit_address_space():
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _run_limited(argv):
    """The CLI in a child limited to 1 GB of address space and 5 s."""
    return subprocess.run(
        [sys.executable, "-m", "conceptlab.cli", *argv],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
        preexec_fn=_limit_address_space,
        timeout=5,
    )


class TestOversizedInputs:
    """Inputs whose key space, sample tables or class tables are far too
    large to build answer or exit 3 at once, in a child limited to 1 GB of
    address space, and print no traceback."""

    @pytest.mark.parametrize(
        "argv, code, fields",
        [
            (["pipeline", "--t", "4", "--k", "1", "--bits", "30"], 3,
             {"chromatic_floor": 4, "scheme_valid": True,
              "disambiguation_size": None, "ok": None}),
            (["extract-disambiguation", "--class", "{b4}", "--k", "1",
              "--bits", "30"], 3, {"size": None}),
            (["pipeline", "--t", "4", "--k", "1", "--bits", "1000000000"], 3,
             {"bit_budget": 1000000000, "chromatic_floor": None,
              "counting_ceiling": None}),
            (["extract-disambiguation", "--class", "{b4}", "--k", "1",
              "--bits", "1000000000"], 3,
             {"size": None, "counting_bound": None}),
            (["min-compression", "--class", "{cube}", "--m", "1", "--bits",
              "22"], 0, {"k": 0, "certificate_valid": True}),
            (["min-compression", "--class", "{cube}", "--m", "2", "--bits",
              "30"], 0, {"k": 0, "certificate_valid": True}),
            (["pipeline", "--t", "2000", "--k", "1", "--bits", "1"], 3,
             {"n_parts": 1999, "chromatic_floor": None}),
            (["pipeline", "--t", "20000", "--k", "1", "--bits", "1"], 3,
             {"n_parts": 19999, "chromatic_floor": None}),
            (["pipeline", "--t", "20000", "--k", "1", "--bits", "1",
              "--scheme", "boosted"], 3, {"chromatic_floor": None}),
            (["gen", "--family", "haussler-long", "--points", "14",
              "--labels", "9", "--max-nonzero", "14"], 3, None),
            (["gen", "--family", "biclique", "--t", "20000"], 3, None),
            (["gen", "--family", "random", "--points", "1000", "--concepts",
              "10000000", "--labels", "3"], 3, None),
            (["pipeline", "--t", "1000000000", "--k", "1000000000", "--bits",
              "1"], 3, {"chromatic_floor": None, "counting_ceiling": None}),
            # sizes far past anything the undefined class realizes
            (["verify-compression", "--class", "{void}", "--scheme", "star",
              "--m", "1000000000"], 0,
             {"reports": [{"valid": True, "m": 1000000000, "k_of_m": 0,
                           "samples_checked": 0, "failures": []}]}),
            (["min-compression", "--class", "{void}", "--m", "1000000000",
              "--bits", "0"], 0, {"k": 0, "certificate_valid": True}),
            (["extract-disambiguation", "--class", "{void}", "--k",
              "1000000000", "--bits", "0"], 0,
             {"size": 1, "counting_bound": 1}),
            # the boosted reconstructor answers the empty key
            (["extract-disambiguation", "--class", "{one}", "--scheme",
              "boosted", "--k", "1", "--bits", "0"], 0, {"size": 1}),
            # the one-point class realizes one sample per size, and one of
            # 10^8 entries is past the sample-size budget
            (["min-compression", "--class", "{one}", "--m", "100000000",
              "--bits", "0"], 3, None),
            (["verify-compression", "--class", "{one}", "--scheme", "boosted",
              "--m", "100000000"], 3,
             {"reports": [{"valid": None, "m": 100000000, "k_of_m": 0,
                           "samples_checked": 0, "failures": []}]}),
            (["verify-compression", "--class", "{one}", "--scheme", "boosted",
              "--m", "2", "--m", "100000000"], 3,
             {"reports": [{"valid": True, "m": 2, "k_of_m": 24,
                           "samples_checked": 1, "failures": []},
                          {"valid": None, "m": 100000000, "k_of_m": 0,
                           "samples_checked": 0, "failures": []}]}),
        ],
        ids=[
            "pipeline-bits30", "extract-bits30", "pipeline-bits1e9",
            "extract-bits1e9", "min-compression-bits22",
            "min-compression-bits30", "pipeline-t2000", "pipeline-t20000",
            "pipeline-t20000-boosted", "gen-haussler-long", "gen-biclique",
            "gen-random", "pipeline-t1e9-k1e9", "verify-compression-void-m1e9",
            "min-compression-void-m1e9", "extract-void-k1e9",
            "extract-one-boosted",
            "min-compression-one-m1e8", "verify-compression-one-m1e8",
            "verify-compression-one-m2-m1e8",
        ],
    )
    def test_exits_fast_without_traceback(self, tmp_path, argv, code, fields):
        files = {
            "b4": tmp_path / "b4.json",
            "cube": tmp_path / "cube.json",
            "void": tmp_path / "void.json",
            "one": tmp_path / "one.json",
        }
        run_cli("gen", "--family", "biclique", "--t", "4", "--out", str(files["b4"]))
        run_cli(
            "gen", "--family", "haussler-long", "--points", "2", "--labels",
            "2", "--max-nonzero", "2", "--out", str(files["cube"]),
        )
        # one concept, undefined everywhere: no sample is realizable
        run_cli(
            "gen", "--family", "random", "--points", "2", "--concepts", "1",
            "--labels", "1", "--partial", "--star-prob", "1", "--out",
            str(files["void"]),
        )
        files["one"].write_text(
            dumps_class(ConceptClass(1, ((0,),), ClassKind.TOTAL)),
            encoding="utf-8",
        )
        proc = _run_limited([arg.format(**files) for arg in argv])
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        if fields is None:
            assert proc.stdout == ""
        else:
            data = json.loads(proc.stdout)
            assert {name: data[name] for name in fields} == fields

    @pytest.mark.parametrize(
        "family, m",
        [
            (["haussler-long", "--points", "2", "--labels", "2",
              "--max-nonzero", "2"], 1),
            (["haussler-long", "--points", "2", "--labels", "2",
              "--max-nonzero", "2"], 2),
            (["haussler-long", "--points", "3", "--labels", "2",
              "--max-nonzero", "2"], 2),
            (["biclique", "--t", "4"], 2),
        ],
        ids=["cube-m1", "cube-m2", "hl-3-2-2-m2", "biclique-4-m2"],
    )
    def test_huge_bit_budget_certificate_is_the_smallest_sufficient_one(
        self, tmp_path, family, m
    ):
        # N samples never need more than N bit strings per sub-multiset, so
        # every budget b with 2^(b+1) - 1 >= N gives the same certificate
        cls_file = tmp_path / "cls.json"
        run_cli("gen", "--family", *family, "--out", str(cls_file))
        n = sum(1 for _ in enumerate_realizable_samples(
            loads_class(cls_file.read_text()), m))
        b = next(b for b in range(31) if 2 ** (b + 1) - 1 >= n)
        certs = {bits: tmp_path / f"cert{bits}.json" for bits in (b, 30)}
        assert run_cli(
            "min-compression", "--class", str(cls_file), "--m", str(m),
            "--bits", str(b), "--certificate", str(certs[b]),
        ) == 0
        proc = _run_limited([
            "min-compression", "--class", str(cls_file), "--m", str(m),
            "--bits", "30", "--certificate", str(certs[30]),
        ])
        assert proc.returncode == 0, proc.stderr
        assert certs[30].read_text() == certs[b].read_text()


class TestDeeplyNestedJson:
    """A file nested past the JSON parser's recursion limit is a usage
    error at every entry that reads one: exit 2, one line on stderr."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["dim", "--class", "{deep}", "--kind", "vc"],
            ["verify-compression", "--class", "{deep}", "--m", "1"],
            ["min-compression", "--class", "{deep}", "--m", "1", "--bits", "0"],
            ["extract-disambiguation", "--class", "{deep}", "--k", "1",
             "--bits", "0"],
            ["verify-compression", "--class", "{one}", "--scheme",
             "file:{deep}", "--m", "1"],
            ["report", "{deep}"],
        ],
        ids=["dim", "verify-compression", "min-compression",
             "extract-disambiguation", "scheme-file", "report"],
    )
    def test_exits_2_with_a_one_line_usage_error(self, tmp_path, argv):
        files = {"deep": tmp_path / "deep.json", "one": tmp_path / "one.json"}
        files["deep"].write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        files["one"].write_text(
            dumps_class(ConceptClass(1, ((0,),), ClassKind.TOTAL)),
            encoding="utf-8",
        )
        proc = _run_limited([arg.format(**files) for arg in argv])
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("usage error: ")
        assert proc.stderr.count("\n") == 1

    def test_a_recursion_error_from_package_code_stays_visible(
        self, tmp_path, monkeypatch
    ):
        from conceptlab import cli

        def recursing(cls, kind):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "dimension", recursing)
        cls_file = tmp_path / "one.json"
        cls_file.write_text(
            dumps_class(ConceptClass(1, ((0,),), ClassKind.TOTAL)),
            encoding="utf-8",
        )
        with pytest.raises(RecursionError):
            run_cli("dim", "--class", str(cls_file), "--kind", "vc")


PEAK_RSS_CHILD = """
import re, resource, sys
limit = 1 << 30
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from conceptlab.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(re.search(r"VmHWM:\\s+(\\d+) kB", status.read()).group(1), file=sys.stderr)
sys.exit(code)
"""
"""Runs the CLI under 1 GB of address space, which the child sets on
itself, and prints its peak resident set in kB as the last line of stderr
(VmHWM: unlike ``ru_maxrss``, it does not count the parent's pages from
before the exec)."""


def _run_peak_rss(argv):
    """The CLI in a ``PEAK_RSS_CHILD`` with a 60 s timeout; its peak
    resident set in kB is the last word of its stderr."""
    return subprocess.run(
        [sys.executable, "-c", PEAK_RSS_CHILD, *argv],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
        timeout=60,
    )


class TestLongSamples:
    """The sample walk holds O(m) state: m = 100,000 on a one-point,
    one-concept class (one sample of 100,000 entries) answers in a child
    whose peak resident set stays under 50 MB."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["min-compression", "--class", "{one}", "--m", "100000",
             "--bits", "0"],
            ["verify-compression", "--class", "{one}", "--scheme", "boosted",
             "--m", "100000"],
        ],
        ids=["min-compression", "verify-compression-boosted"],
    )
    def test_m_100000_stays_under_50_mb(self, tmp_path, argv):
        one = tmp_path / "one.json"
        one.write_text(
            dumps_class(ConceptClass(1, ((0,),), ClassKind.TOTAL)),
            encoding="utf-8",
        )
        proc = _run_peak_rss([arg.format(one=one) for arg in argv])
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        peak_kb = int(proc.stderr.split()[-1])
        assert peak_kb < 50 * 1024, peak_kb


class TestKeyClasses:
    """Keys that differ only in their bits form one class that the key
    search never lists key by key: one concept over 2,000 or 6,000 points
    at m = 1 and 14 bits (one sample per point, and one key serving them
    all) answers k = 0 in a child whose peak resident set stays under
    50 MB."""

    @pytest.mark.parametrize("points", [2000, 6000])
    def test_one_key_serves_every_sample(self, tmp_path, points):
        cls_file = tmp_path / "one.json"
        cls_file.write_text(
            dumps_class(ConceptClass(points, ((0,) * points,), ClassKind.TOTAL)),
            encoding="utf-8",
        )
        proc = _run_peak_rss([
            "min-compression", "--class", str(cls_file), "--m", "1",
            "--bits", "14",
        ])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == (
            "{\n"
            f"  \"class\": {json.dumps(str(cls_file))},\n"
            "  \"m\": 1,\n"
            "  \"bit_budget\": 14,\n"
            "  \"k\": 0,\n"
            "  \"certificate_valid\": true\n"
            "}\n"
        )
        peak_kb = int(proc.stderr.split()[-1])
        assert peak_kb < 50 * 1024, peak_kb


def _loads_unlimited(text):
    """JSON with ints of any length: the interpreter's int-to-string digit
    limit (Python 3.11 on) is lifted while the text is parsed."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        return json.loads(text)
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        return json.loads(text)
    finally:
        sys.set_int_max_str_digits(limit)


class TestCountingBoundsPastTheDigitLimit:
    """Counting bounds longer than the interpreter's int-to-string limit
    (4300 digits by default) are printed in full with the exit-3 report;
    the limit still holds for the input."""

    @pytest.mark.parametrize(
        "argv, field, expected",
        [
            (["pipeline", "--t", "4", "--k", "1", "--bits", "20000"],
             "counting_ceiling", lambda b4: counting_bound(3, 2, 1, 20000)),
            (["extract-disambiguation", "--class", "{b4}", "--k", "1",
              "--bits", "20000"], "counting_bound",
             lambda b4: counting_bound(
                 len(b4.support_indices()), len(b4.labels_used()), 1, 20000
             )),
            # 19,999 parts and k past them: every term, (1 + 2)^19999 * 3
            (["pipeline", "--t", "20000", "--k", "20000", "--bits", "1"],
             "counting_ceiling", lambda b4: 3**20000),
        ],
        ids=["pipeline-bits20000", "extract-bits20000", "pipeline-k20000"],
    )
    def test_exit_3_prints_the_whole_bound(
        self, tmp_path, argv, field, expected
    ):
        b4 = tmp_path / "b4.json"
        run_cli("gen", "--family", "biclique", "--t", "4", "--out", str(b4))
        proc = _run_limited([arg.format(b4=b4) for arg in argv])
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        bound = expected(loads_class(b4.read_text(encoding="utf-8")))
        assert bound > 10**4300
        assert _loads_unlimited(proc.stdout)[field] == bound

    def test_limit_is_restored_and_holds_for_input(self, tmp_path, capsys):
        get_limit = getattr(sys, "get_int_max_str_digits", None)
        if get_limit is None:
            pytest.skip("no int-to-string digit limit before Python 3.11")
        limit = get_limit()
        code = run_cli("pipeline", "--t", "4", "--k", "1", "--bits", "20000")
        assert code == 3
        assert get_limit() == limit
        huge = tmp_path / "huge.json"
        huge.write_text(
            '{"domain_size": ' + "1" * (limit + 1)
            + ', "kind": "total", "concepts": [[0]]}',
            encoding="utf-8",
        )
        capsys.readouterr()
        assert run_cli("dim", "--class", str(huge), "--kind", "vc") == 2
        assert "usage error" in capsys.readouterr().err
        assert get_limit() == limit


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["gen", "--family", "disjoint-pairs"],
            "--family disjoint-pairs requires --rows",
        ),
        (
            ["gen", "--family", "haussler-long", "--points", "3", "--labels", "2"],
            "--family haussler-long requires --points, --labels, --max-nonzero",
        ),
        (
            ["gen", "--family", "random", "--points", "3", "--labels", "2"],
            "--family random requires --points, --concepts, --labels",
        ),
        (
            ["verify-compression", "--class", "{cls}", "--scheme", "bogus", "--m", "1"],
            "unknown scheme 'bogus' (use boosted, star, or file:PATH)",
        ),
        (
            ["extract-disambiguation", "--class", "{cls}", "--scheme", "bogus",
             "--k", "1", "--bits", "0"],
            "unknown scheme 'bogus' (use boosted, star, or file:PATH)",
        ),
    ],
    ids=[
        "gen-disjoint-pairs-no-rows",
        "gen-haussler-long-no-max-nonzero",
        "gen-random-no-concepts",
        "verify-unknown-scheme",
        "extract-unknown-scheme",
    ],
)
def test_usage_error_branches(tmp_path, capsys, argv, message):
    cls = tmp_path / "cls.json"
    cls.write_text(
        dumps_class(ConceptClass(1, ((0,), (1,)), ClassKind.TOTAL)), encoding="utf-8"
    )
    assert run_cli(*[arg.format(cls=cls) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"


def test_gen_gdim_blowup_partial(capsys):
    # not an error branch: the family's partial half, as generated
    assert run_cli("gen", "--family", "gdim-blowup-partial") == 0
    assert capsys.readouterr().out == dumps_class(graph_dim_blowup_example()[0])
