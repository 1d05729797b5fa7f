"""Property tests for the input contracts: malformed documents raise
ValueError (exit 2 through the CLI) and nothing else, the wire formats
round-trip byte for byte, and the exact minimum-compression search always
answers with some k <= m whose table replays."""

import contextlib
import io
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conceptlab.cli import main
from conceptlab.compression import (
    CompressionKey,
    TableScheme,
    min_compression_certificate,
    verify_scheme,
)
from conceptlab.core import (
    STAR,
    ClassKind,
    ConceptClass,
    Sample,
    dumps_class,
    loads_class,
    sample_from_json,
)

PROPERTY = settings(
    max_examples=150, deadline=None, database=None, derandomize=True
)

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)


def either(good):
    """Mostly well-typed values, one time in five arbitrary JSON in their
    place, so that documents fail deep inside as well as at the top."""
    return st.sampled_from(range(5)).flatmap(
        lambda i: json_values if i == 4 else good
    )


def array(*parts):
    """A JSON array with one element drawn from each strategy."""
    return st.tuples(*parts).map(list)


def samples_json():
    return st.lists(
        either(array(either(st.integers(0, 3)), either(st.integers(0, 2)))),
        max_size=3,
    )


bits_json = either(st.sampled_from(["", "0", "1"]))
concept_json = either(st.lists(st.integers(0, 2), max_size=3))

class_documents = either(
    st.fixed_dictionaries(
        {
            "domain_size": either(st.integers(0, 3)),
            "kind": either(st.sampled_from(["total", "partial"])),
            "concepts": either(
                st.lists(
                    either(
                        st.lists(either(st.integers(0, 2) | st.just("*")), max_size=3)
                    ),
                    max_size=3,
                )
            ),
        }
    ),
)

table_documents = either(
    st.fixed_dictionaries(
        {
            "kind": either(st.just("table")),
            "domain_size": either(st.integers(0, 3)),
            "default": concept_json,
            "compress": either(
                st.lists(
                    either(array(samples_json(), either(array(samples_json(), bits_json)))),
                    max_size=3,
                )
            ),
            "reconstruct": either(
                st.lists(
                    either(array(samples_json(), bits_json, concept_json)), max_size=3
                )
            ),
        }
    ),
)

report_documents = either(
    st.fixed_dictionaries(
        {
            "reports": either(
                st.lists(
                    either(
                        st.fixed_dictionaries(
                            {
                                "valid": either(st.sampled_from([True, False, None])),
                                "m": either(st.integers(0, 5)),
                                "k_of_m": either(st.integers(0, 5)),
                                "samples_checked": either(st.integers(0, 9)),
                            }
                        )
                    ),
                    max_size=3,
                )
            )
        }
    ),
)


def rejects(load, doc) -> bool:
    """True when the loader rejects the document with ValueError; any other
    exception fails the calling test."""
    try:
        load(doc)
    except ValueError:
        return True
    return False


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_usage_error(argv):
    code, out, err = run_cli(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("usage error: ")
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


class TestLoadersRaiseOnlyValueError:
    @PROPERTY
    @given(class_documents)
    def test_loads_class(self, doc):
        rejects(loads_class, json.dumps(doc))

    @PROPERTY
    @given(st.text(max_size=12))
    def test_loads_class_on_any_text(self, text):
        rejects(loads_class, text)

    @PROPERTY
    @given(either(samples_json()))
    def test_sample_from_json(self, doc):
        rejects(sample_from_json, doc)

    @PROPERTY
    @given(table_documents)
    def test_table_scheme_from_json(self, doc):
        rejects(TableScheme.from_json, doc)


class TestCliUsageErrors:
    @PROPERTY
    @given(class_documents)
    def test_dim_on_a_rejected_class_file(self, workdir, doc):
        assume(rejects(loads_class, json.dumps(doc)))
        path = workdir / "class.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert_usage_error(["dim", "--class", str(path), "--kind", "vc"])

    @PROPERTY
    @given(table_documents)
    def test_verify_compression_on_a_rejected_scheme_file(self, workdir, doc):
        assume(rejects(TableScheme.from_json, doc))
        cls_path = workdir / "two.json"
        cls_path.write_text(
            dumps_class(ConceptClass(2, ((0, 0), (1, 1)), ClassKind.TOTAL)),
            encoding="utf-8",
        )
        path = workdir / "scheme.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert_usage_error(
            ["verify-compression", "--class", str(cls_path), "--scheme",
             f"file:{path}", "--m", "1"]
        )

    @PROPERTY
    @given(report_documents)
    def test_report_exits_two_unless_well_formed(self, workdir, doc):
        path = workdir / "report.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["report", str(path)]
        if well_formed_report(doc):
            code, out, _ = run_cli(argv)
            assert code == 0
            assert len(out.splitlines()) == 1 + len(doc["reports"])
        else:
            assert_usage_error(argv)


def well_formed_report(doc) -> bool:
    def count(value):
        return type(value) is int and value >= 0

    reports = doc.get("reports") if isinstance(doc, dict) else None
    return (
        isinstance(reports, list)
        and len(reports) > 0
        and all(
            isinstance(r, dict)
            and all(count(r.get(f)) for f in ("m", "k_of_m", "samples_checked"))
            and "valid" in r
            and type(r["valid"]) in (bool, type(None))
            for r in reports
        )
    )


@st.composite
def small_classes(draw, max_points=3, max_labels=3, partial=True):
    n = draw(st.integers(1, max_points))
    labels = draw(st.integers(1, max_labels))
    cell = st.sampled_from(((STAR,) if partial else ()) + tuple(range(labels)))
    rows = draw(st.lists(st.tuples(*[cell] * n), min_size=1, max_size=6, unique=True))
    kind = ClassKind.PARTIAL if partial else ClassKind.TOTAL
    return ConceptClass(n, tuple(rows), kind)


entries = st.tuples(st.integers(0, 3), st.integers(0, 2))
samples = st.lists(entries, max_size=3).map(lambda e: Sample(tuple(e)))
keys = st.builds(CompressionKey, samples, st.sampled_from(["", "0", "1", "01"]))


@st.composite
def table_schemes(draw):
    n = draw(st.integers(0, 3))
    concept = st.tuples(*[st.integers(0, 2)] * n)
    return TableScheme(
        domain_size=n,
        compress_table=tuple(draw(st.lists(st.tuples(samples, keys), max_size=3))),
        reconstruct_table=tuple(
            draw(st.lists(st.tuples(keys, concept), max_size=3))
        ),
        default_concept=draw(concept),
    )


class TestRoundTrips:
    @PROPERTY
    @given(st.booleans().flatmap(lambda p: small_classes(partial=p)))
    def test_class_json(self, cls):
        text = dumps_class(cls)
        again = loads_class(text)
        assert dumps_class(again) == text
        assert set(again.concepts) == set(cls.concepts)

    @PROPERTY
    @given(table_schemes())
    def test_table_scheme_json(self, table):
        text = json.dumps(table.to_json())
        again = TableScheme.from_json(json.loads(text))
        assert again == table
        assert json.dumps(again.to_json()) == text


class TestMinCompressionAlwaysAnswers:
    @PROPERTY
    @given(small_classes(), st.integers(1, 3), st.integers(0, 1))
    def test_k_at_most_m_and_the_table_replays(self, cls, m, bits):
        # keeping the whole sample is a valid size-m scheme, so the search
        # never runs past k = m
        k, table = min_compression_certificate(cls, m, bits)
        assert 0 <= k <= m
        report = verify_scheme(cls, table.as_scheme(), m)
        assert report.valid is True
        assert report.k_of_m <= max(k, bits)
