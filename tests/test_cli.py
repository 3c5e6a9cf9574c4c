import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarsig import cli, fibration, properties, wall
from planarsig.cli import DocumentError, _json_text, _matrix_strings, load_document, main
from planarsig.fibration import InvariantsReport, PlanarFibration
from planarsig.linalg import RationalMatrix, Subspace
from planarsig.properties import CHECK_NAMES, check_fibration, random_fibration
from planarsig.surfaces import (
    CurveClass,
    NonAllowableCycleError,
    PlanarSurface,
    TorusBoundarySpace,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

THREE_CYCLES_DOC = {
    "boundary_components": 3,
    "vanishing_cycles": [
        {"encloses": [1]},
        {"encloses": [2]},
        {"encloses": [1, 2]},
    ],
}

# A null-homologous first cycle: computed only under --force.
FORCED_DOC = json.loads((GOLDEN / "forced_r2.json").read_text())


def run_compute(capsys, doc, *flags):
    code = main(["compute", "-", *flags])
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def feed_stdin(monkeypatch):
    import io

    def feed(payload):
        text = payload if isinstance(payload, str) else json.dumps(payload)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))

    return feed


class TestCompute:
    def test_three_cycles(self, capsys, feed_stdin):
        feed_stdin(THREE_CYCLES_DOC)
        code, out = run_compute(capsys, THREE_CYCLES_DOC)
        assert code == 0
        report = json.loads(out)
        assert report["sigma"] == -1
        assert report["b2"] == 1
        assert report["definiteness"] == "negative-definite"
        assert report["oracle_agrees"] is True
        assert report["intersection_form"] == [0, 1, 0]
        assert report["wall"]["correction_triple"] == [2, 0, 0]
        assert report["schema_version"] == "1"

    def test_all_pairs_of_three(self, capsys, feed_stdin):
        doc = {
            "boundary_components": 4,
            "vanishing_cycles": [
                {"encloses": [1, 2]},
                {"encloses": [1, 3]},
                {"encloses": [2, 3]},
            ],
        }
        feed_stdin(doc)
        code, out = run_compute(capsys, doc)
        assert code == 0
        assert json.loads(out)["sigma"] == 0

    def test_empty_cycle_list(self, capsys, feed_stdin):
        doc = {"boundary_components": 4, "vanishing_cycles": []}
        feed_stdin(doc)
        code, out = run_compute(capsys, doc)
        assert code == 0
        report = json.loads(out)
        assert report["sigma"] == 0
        assert report["definiteness"] == "zero-form"

    def test_reads_file(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(THREE_CYCLES_DOC))
        assert main(["compute", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["sigma"] == -1

    def test_missing_file(self, capsys, tmp_path):
        path = tmp_path / "missing.json"
        assert main(["compute", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot read {path}: [Errno 2] No such file or directory: {str(path)!r}\n"
        )

    def test_table_format(self, capsys, feed_stdin):
        feed_stdin(THREE_CYCLES_DOC)
        code = main(["compute", "-", "--format", "table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "signature" in out
        assert "-1" in out
        assert "boundary map" in out

    def test_table_without_cycles_prints_an_empty_psi(self, capsys, feed_stdin):
        feed_stdin({"boundary_components": 2})
        assert main(["compute", "-", "--format", "table"]) == 0
        assert "\npsi matrix:\n  (empty)\nboundary map:\n" in capsys.readouterr().out

    def test_byte_identical_output(self, capsys, feed_stdin):
        feed_stdin(THREE_CYCLES_DOC)
        main(["compute", "-"])
        first = capsys.readouterr().out
        feed_stdin(THREE_CYCLES_DOC)
        main(["compute", "-"])
        second = capsys.readouterr().out
        assert first == second

    def test_matches_golden_file(self, capsys, feed_stdin):
        feed_stdin(THREE_CYCLES_DOC)
        assert main(["compute", "-"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "three_cycles_report.json").read_text()

    def test_wall_route_does_not_use_the_closed_forms(self, capsys, feed_stdin, monkeypatch):
        # The Wall route must stand on its own: Psi comes from the
        # pairing of decomposed representatives and L+ from the kernel of
        # the boundary map, never from the closed forms it is checked
        # against, nor from the Gram matrix they share.
        def refuse(*args):
            raise AssertionError("the Wall route called a closed form")

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "planarsig"]
        for module in modules:
            for name in ("psi_gram_closed_form", "lplus_closed_form", "_gram_rows"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        feed_stdin(THREE_CYCLES_DOC)
        assert main(["compute", "-"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "three_cycles_report.json").read_text()

    @pytest.mark.parametrize("name", ["three_cycles", "wide_r32_m2", "large_r16_m80"])
    def test_wall_route_reads_no_fraction_entries(self, capsys, feed_stdin, monkeypatch, name):
        # From the boundary map to the inertia, the Wall route and the
        # report work on integer rows: no canonical basis is built
        # and no matrix entry is read as a Fraction.
        def refuse(*args):
            raise AssertionError("compute read Fraction entries")

        monkeypatch.setattr(Subspace, "basis", property(refuse))
        monkeypatch.setattr(RationalMatrix, "__getitem__", refuse)
        if name == "three_cycles":
            feed_stdin(THREE_CYCLES_DOC)
        else:
            feed_stdin((GOLDEN / f"{name}.json").read_text())
        assert main(["compute", "-"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / f"{name}_report.json").read_text()

    @pytest.mark.parametrize("name", ["wide_r32_m2", "large_r16_m80"])
    def test_matches_golden_file_at_benchmark_sizes(self, capsys, feed_stdin, name):
        # Seeded documents of the benchmark's two compute shapes: r = 32
        # with m = 2 (the triple side dominates) and r = 16 with m = 80
        # (large rationals in Psi).
        feed_stdin((GOLDEN / f"{name}.json").read_text())
        assert main(["compute", "-"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / f"{name}_report.json").read_text()

    def test_table_matches_golden_file(self, capsys, feed_stdin):
        # The table layout, byte for byte, with Psi's fractions in it.
        feed_stdin((GOLDEN / "large_r16_m80.json").read_text())
        assert main(["compute", "-", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "large_r16_m80_table.txt").read_text()

    def test_report_keys_are_the_fields_of_invariants_report(self, capsys, feed_stdin):
        # The library states the report's fields once; the CLI adds only
        # the schema version and the echoed input in front of them.
        feed_stdin(THREE_CYCLES_DOC)
        assert main(["compute", "-"]) == 0
        keys = list(json.loads(capsys.readouterr().out))
        assert keys[:2] == ["schema_version", "input"]
        assert keys[2:] == [f.name for f in fields(InvariantsReport)]

    def test_report_digest_at_scale(self, capsys, feed_stdin):
        # fibration_document(Random(7), 40, 200) of benchmarks/workloads.py:
        # r = 40 reaches integers far larger than the benchmark sizes do.
        # Only the digest of the report is pinned, to keep the file small.
        feed_stdin((GOLDEN / "scale_r40_m200.json").read_text())
        assert main(["compute", "-"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "8567da904937d2bb5646a5b5c3ef77e218a0069b58fe9e22b6984bedf532fe48"
        )

    def test_one_torus_space_per_report(self, capsys, feed_stdin, monkeypatch):
        # The boundary map carries its tori, and the standard triple
        # takes them from it instead of building them again.
        built = []
        check = TorusBoundarySpace.__post_init__
        monkeypatch.setattr(
            TorusBoundarySpace, "__post_init__", lambda self: built.append(check(self))
        )
        feed_stdin((GOLDEN / "large_r16_m80.json").read_text())
        assert main(["compute", "-"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "large_r16_m80_report.json").read_text()
        assert len(built) == 1

    def test_explicit_class_vectors(self, capsys, feed_stdin):
        doc = {
            "boundary_components": 3,
            "vanishing_cycles": [{"class": [1, 1]}, {"class": [2, -1]}],
        }
        feed_stdin(doc)
        code, out = run_compute(capsys, doc)
        assert code == 0
        assert json.loads(out)["d"] == 2


class TestMatrixStrings:
    def test_entries_print_as_str_of_fraction(self):
        big = Fraction(10**40 + 1, 10**20)
        rows = [
            [Fraction(-6, 4), 0, Fraction(8, 4), -7, "3/9", big],
            [0] * 6,
            # One scale for the row (6), but each entry reduces on its own.
            [Fraction(1, 2), Fraction(1, 3), Fraction(-5, 6), 12, "-4/2", -big],
        ]
        got = _matrix_strings(RationalMatrix(rows), "m")
        assert got == [[str(Fraction(x)) for x in row] for row in rows]
        assert got[0][:4] == ["-3/2", "0", "2", "-7"]
        assert got[2][:5] == ["1/2", "1/3", "-5/6", "12", "-2"]

    def test_empty_shapes(self):
        assert _matrix_strings(RationalMatrix([]), "m") == []
        assert _matrix_strings(RationalMatrix([], n_cols=3), "m") == []
        assert _matrix_strings(RationalMatrix([[], []]), "m") == [[], []]


# Strings that need escaping, one of them ending in the separator of
# a joined list, and strings that need none.
tricky_text = st.text(max_size=4) | st.sampled_from(
    ['"', "\\", "\n", "\x00\x1f", "é", "\u2028", "😀", '", ', "1/2"]
)
report_values = st.recursive(
    st.none() | st.booleans() | st.integers() | tricky_text,
    lambda children: st.lists(children, max_size=4)
    | st.lists(tricky_text, max_size=4)
    | st.lists(st.integers(), max_size=4)
    | st.dictionaries(tricky_text, children, max_size=4),
    max_leaves=16,
)


class TestJsonText:
    """The report writer prints what ``json.dumps(obj, indent=2)`` does."""

    @settings(max_examples=300, deadline=None)
    @given(report_values)
    def test_equals_indenting_json_dumps(self, value):
        assert _json_text(value) == json.dumps(value, indent=2)

    def test_lists_of_strings_that_need_escaping(self):
        for items in (['a", ', "b"], ["x", "\\"], ["é"], ["\t", "ok"], ["", ""]):
            assert _json_text(items) == json.dumps(items, indent=2)


class TestEchoRoundTrip:
    def test_enclosed_sets_canonicalized(self, capsys, feed_stdin):
        doc = {
            "boundary_components": 4,
            "vanishing_cycles": [{"encloses": [1, 0]}, {"encloses": [3, 2]}],
        }
        feed_stdin(doc)
        code, out = run_compute(capsys, doc)
        assert code == 0
        echo = json.loads(out)["input"]
        assert echo["vanishing_cycles"] == [
            {"encloses": [2, 3]},
            {"encloses": [2, 3]},
        ]

    def test_echo_is_a_fixed_point(self, capsys, feed_stdin):
        # Feeding the echo back reproduces the whole report, byte for
        # byte.  large_r16_m80 has 44 enclosed sets that hold circle 0.
        mixed = {
            "boundary_components": 4,
            "vanishing_cycles": [
                {"encloses": [0, 2]},
                {"class": [1, 0, -1]},
                {"encloses": [3]},
            ],
        }
        large = json.loads((GOLDEN / "large_r16_m80.json").read_text())
        for doc in (mixed, large):
            feed_stdin(doc)
            code, first = run_compute(capsys, doc)
            assert code == 0
            echo = json.loads(first)["input"]
            assert echo != doc
            feed_stdin(echo)
            code, second = run_compute(capsys, echo)
            assert code == 0
            assert second == first


class TestValidation:
    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ("{not json", "invalid JSON"),
            ("[1, 2]", "object"),
            ({"vanishing_cycles": []}, "boundary_components"),
            ({"boundary_components": 0, "vanishing_cycles": []}, "boundary_components"),
            ({"boundary_components": True, "vanishing_cycles": []}, "boundary_components"),
            ({"boundary_components": 3, "vanishing_cycles": {}}, "vanishing_cycles"),
            (
                {"boundary_components": 3, "vanishing_cycles": [{"encloses": [5]}]},
                "out of range",
            ),
            (
                {"boundary_components": 3, "vanishing_cycles": [{"encloses": []}]},
                "nonempty",
            ),
            (
                {"boundary_components": 3, "vanishing_cycles": [{"encloses": [0, 1, 2]}]},
                "proper subset",
            ),
            (
                {"boundary_components": 3, "vanishing_cycles": [{"encloses": [1, 1]}]},
                "distinct",
            ),
            (
                {"boundary_components": 3, "vanishing_cycles": [{"class": [1]}]},
                "length",
            ),
            (
                {
                    "boundary_components": 3,
                    "vanishing_cycles": [{"encloses": [1], "class": [1, 0]}],
                },
                "exactly one",
            ),
            (
                {"boundary_components": 3, "vanishing_cycles": [], "bogus": 1},
                "unknown key",
            ),
            (
                {"boundary_components": 3, "vanishing_cycles": [7]},
                "vanishing_cycles[0]",
            ),
            (
                {"boundary_components": 3, "vanishing_cycles": [{"encloses": 1}]},
                "error: vanishing_cycles[0].encloses: must be a list of integers\n",
            ),
            (
                {"boundary_components": 3, "force_non_allowable": "yes"},
                "error: force_non_allowable: must be a boolean\n",
            ),
            # The flag's type is checked before null homology (exit 3),
            # and after the shape and fit of every cycle.
            (
                {**FORCED_DOC, "force_non_allowable": 1},
                "error: force_non_allowable: must be a boolean\n",
            ),
            (
                {"boundary_components": 3, "vanishing_cycles": [{"class": [0]}],
                 "force_non_allowable": 1},
                "error: vanishing_cycles[0].class: ",
            ),
        ],
    )
    def test_invalid_documents_exit_two(self, capsys, feed_stdin, payload, fragment):
        feed_stdin(payload)
        assert main(["compute", "-"]) == 2
        err = capsys.readouterr().err
        assert fragment in err

    @pytest.mark.parametrize(
        "payload, line",
        [
            ([1, 2], "document must be a JSON object"),
            ({"boundary_components": 3, "vanishing_cycles": [], "bogus": 1},
             "bogus: unknown key 'bogus'"),
            ({"boundary_components": 0}, "boundary_components: must be an integer >= 1"),
            ({"boundary_components": 3, "vanishing_cycles": {}},
             "vanishing_cycles: must be a list"),
            ({"boundary_components": 3, "vanishing_cycles": [7]},
             "vanishing_cycles[0]: must be an object"),
            ({"boundary_components": 3, "vanishing_cycles": [{}]},
             'vanishing_cycles[0]: must have exactly one of the keys "encloses" or "class"'),
            ({"boundary_components": 3, "vanishing_cycles": [{"encloses": [1], "class": [1, 0]}]},
             'vanishing_cycles[0]: must have exactly one of the keys "encloses" or "class"'),
            ({"boundary_components": 3, "vanishing_cycles": [{"bogus": [1]}]},
             'vanishing_cycles[0]: must have exactly one of the keys "encloses" or "class"'),
            # The document's integers are within Python's digit limit,
            # but Psi holds their squares, which are not.
            ({"boundary_components": 3, "vanishing_cycles": [{"class": [10**2200, 0]}]},
             "wall.psi_matrix: an entry has more digits than Python's limit of "
             f"{sys.get_int_max_str_digits()} for printing an integer"),
        ],
        ids=[
            "not-an-object",
            "unknown-key",
            "bad-boundary-components",
            "cycles-not-a-list",
            "cycle-not-an-object",
            "cycle-without-keys",
            "cycle-with-both-keys",
            "cycle-with-other-key",
            "report-entry-past-digit-limit",
        ],
    )
    def test_invalid_document_error_line(self, capsys, feed_stdin, payload, line):
        feed_stdin(payload)
        assert main(["compute", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {line}\n"

    @pytest.mark.parametrize(
        "key, entries",
        [
            ("encloses", [5]),
            ("encloses", [-1]),
            ("encloses", []),
            ("encloses", [0, 1, 2]),
            ("class", [1]),
            ("class", [1.5, 0]),
            ("encloses", [1.5]),
        ],
        ids=[
            "index-out-of-range",
            "negative-index",
            "empty-set",
            "full-set",
            "wrong-class-length",
            "float-class-entry",
            "float-index",
        ],
    )
    def test_geometric_rejection_uses_library_message(self, capsys, feed_stdin, key, entries):
        make = CurveClass.enclosing if key == "encloses" else CurveClass.explicit
        with pytest.raises(ValueError) as expected:
            PlanarSurface(2).class_vector(make(entries))
        feed_stdin({"boundary_components": 3, "vanishing_cycles": [{key: entries}]})
        assert main(["compute", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: vanishing_cycles[0].{key}: {expected.value}\n"

    def test_null_homologous_without_force(self, capsys, feed_stdin):
        doc = {"boundary_components": 3,
               "vanishing_cycles": [{"encloses": [1]}, {"class": [0, 0]}]}
        feed_stdin(doc)
        assert main(["compute", "-"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: vanishing_cycles[1] is null-homologous on the fiber; "
            'pass --force or set "force_non_allowable": true to compute anyway\n'
        )

    @pytest.mark.parametrize(
        "payload",
        [
            b'{"boundary_components": ' + b"1" * 5000 + b"}",
            b"[" * 100000,
            b"\xff\xfe{}",
        ],
        ids=["integer-past-digit-limit", "deep-nesting", "not-utf8"],
    )
    def test_hostile_file_exits_two(self, capsys, tmp_path, payload):
        path = tmp_path / "doc.json"
        path.write_bytes(payload)
        assert main(["compute", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    def test_report_entry_past_digit_limit_exits_two(self, capsys, feed_stdin):
        # The document's integers are within Python's digit limit for
        # int <-> str conversion, but the boundary map holds their
        # squares, which are not.
        doc = {"boundary_components": 3, "vanishing_cycles": [{"class": [10**2200, 0]}]}
        feed_stdin(doc)
        assert main(["compute", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: wall.psi_matrix: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    def test_null_homologous_with_force(self, capsys, feed_stdin):
        doc = {"boundary_components": 3, "vanishing_cycles": [{"class": [0, 0]}]}
        feed_stdin(doc)
        code = main(["compute", "-", "--force"])
        out = capsys.readouterr().out
        assert code == 0
        report = json.loads(out)
        assert report["allowable"] is False
        assert report["oracle_agrees"] is True

    def test_force_flag_in_document(self, capsys, feed_stdin):
        doc = {
            "boundary_components": 3,
            "vanishing_cycles": [{"class": [0, 0]}],
            "force_non_allowable": True,
        }
        feed_stdin(doc)
        assert main(["compute", "-"]) == 0

    def test_forced_report_matches_golden_file(self, capsys, feed_stdin):
        # The echo keeps the document's own flag, false here, although
        # --force lets the null-homologous cycle through.
        feed_stdin(FORCED_DOC)
        code, out = run_compute(capsys, FORCED_DOC, "--force")
        assert code == 0
        assert out == (GOLDEN / "forced_r2_report.json").read_text()


class TestLoadDocument:
    def test_null_homologous_cycle_raises_with_its_index(self):
        with pytest.raises(NonAllowableCycleError) as info:
            load_document(json.dumps(FORCED_DOC))
        assert info.value.index == 0

    def test_force_lets_the_cycle_through_and_echoes_the_document_flag(self):
        doc = load_document(json.dumps(FORCED_DOC), force=True)
        assert doc.force is False
        assert doc.fibration.force is True
        assert doc.fibration.allowable is False
        assert doc.echo()["force_non_allowable"] is False


DOCUMENT_KEYS = (
    "boundary_components",
    "vanishing_cycles",
    "force_non_allowable",
    "encloses",
    "class",
)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(DOCUMENT_KEYS) | st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)


class TestLoadDocumentProperty:
    """Whatever the input, ``load_document`` returns, raises
    DocumentError, or raises NonAllowableCycleError for a valid document
    with a null-homologous cycle."""

    @staticmethod
    def load_or_reject(text):
        try:
            load_document(text)
        except (DocumentError, NonAllowableCycleError):
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.text())
    def test_arbitrary_text(self, text):
        self.load_or_reject(text)

    @settings(max_examples=150, deadline=None)
    @given(json_values)
    def test_arbitrary_json_from_document_keys(self, value):
        self.load_or_reject(json.dumps(value))


class TestExamples:
    def test_pair_family(self, capsys):
        assert main(["examples", "--family", "y1", "--r", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["report"]["sigma"] == -2
        assert out["expected_sigma"] == -2
        assert out["document"] == out["report"]["input"]

    def test_parallel_family(self, capsys):
        assert main(["examples", "--family", "y2", "--r", "4"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["report"]["sigma"] == -11
        # The cycle around circle 0 is echoed as its complement.
        assert out["document"]["vanishing_cycles"][0] == {"encloses": [1, 2, 3, 4, 5]}
        assert out["document"] == out["report"]["input"]

    def test_small_parameter_rejected(self, capsys):
        assert main(["examples", "--family", "y1", "--r", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --r must be >= 2 for the built-in families\n"

    def test_unknown_family_rejected_by_the_parser(self, capsys):
        # argparse words the message differently across Python versions,
        # so only the exit code and the names of the families are pinned.
        with pytest.raises(SystemExit) as info:
            main(["examples", "--family", "y3", "--r", "3"])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "y1" in err and "y2" in err

    def test_families_report_equal_boundary_maps(self, capsys):
        main(["examples", "--family", "y1", "--r", "3"])
        first = json.loads(capsys.readouterr().out)
        main(["examples", "--family", "y2", "--r", "3"])
        second = json.loads(capsys.readouterr().out)
        assert first["report"]["boundary_map"] == second["report"]["boundary_map"]
        assert first["report"]["sigma"] != second["report"]["sigma"]

    def test_table_format(self, capsys):
        assert main(["examples", "--family", "y1", "--r", "2", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert "expected signature 0" in out

    def test_matches_golden_file(self, capsys):
        assert main(["examples", "--family", "y2", "--r", "7"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "examples_y2_r7.json").read_text()

    def test_table_matches_golden_file(self, capsys):
        # The table prints both inertia triples as plain tuples.
        assert main(["examples", "--family", "y1", "--r", "4", "--format", "table"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "examples_y1_r4_table.txt").read_text()


class TestFuzz:
    def test_small_run_passes(self, capsys):
        code = main(
            ["fuzz", "--seed", "1", "--count", "25", "--max-r", "4", "--max-m", "8"]
        )
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["ok"] is True
        assert out["checks_failed"] == 0
        assert out["checks_run"] > 0

    def test_zero_count_vacuous(self, capsys):
        assert main(["fuzz", "--count", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] is True
        assert out["checks_run"] == 0

    def test_seed_determinism(self, capsys):
        args = ["fuzz", "--seed", "9", "--count", "10", "--max-r", "3", "--max-m", "6"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_matches_golden_file(self, capsys):
        assert main(["fuzz", "--seed", "4", "--count", "30"]) == 0
        out = capsys.readouterr().out
        assert out == (GOLDEN / "fuzz_seed4_count30.json").read_text()

    def test_negative_bounds_rejected(self, capsys):
        for flag in ("--count", "--max-r", "--max-m"):
            assert main(["fuzz", flag, "-1"]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: bounds must be nonnegative\n"

    def test_exception_in_an_instance_is_a_failure(self, capsys, monkeypatch):
        import planarsig.properties as properties

        real = properties.lplus_closed_form
        seen = []

        def crash_on_second_instance(r, vectors):
            seen.append((r, [tuple(v) for v in vectors]))
            if len(seen) == 2:
                raise ArithmeticError("first line\nsecond line")
            return real(r, vectors)

        monkeypatch.setattr(properties, "lplus_closed_form", crash_on_second_instance)
        args = ["fuzz", "--seed", "3", "--count", "4", "--max-r", "4", "--max-m", "6"]
        assert main(args) == 1
        out = json.loads(capsys.readouterr().out)
        (failure,) = out["failures"]
        assert failure["instance"] == 1
        assert failure["check"] == "exception"
        assert failure["detail"] == "ArithmeticError: first line second line"
        assert out["ok"] is False
        assert out["checks_failed"] == 1
        assert out["checks_passed"] == out["checks_run"] - out["checks_failed"]
        assert list(out["passed_by_check"]) == CHECK_NAMES
        # The document reproduces the instance that crashed, up to the
        # orientation of cycles whose enclosed set held circle 0.
        r, vectors = seen[1]
        doc = load_document(json.dumps(failure["document"]))
        assert doc.fibration.surface.r == r
        reloaded = doc.fibration.class_vectors()
        assert len(reloaded) == len(vectors)
        for v, w in zip(reloaded, vectors):
            assert v in (w, tuple(-x for x in w))

    def test_random_proper_subset_refuses_r_zero(self):
        # {0} has no nonempty proper subset; a draw would loop for ever.
        class NoDraws(random.Random):
            def random(self):
                raise AssertionError("drew a number for r = 0")

        with pytest.raises(ValueError, match="^no nonempty proper subsets exist for r = 0$"):
            properties.random_proper_subset(NoDraws(), 0)

    def test_check_names_list_the_battery(self):
        # The summary counts passes under CHECK_NAMES, so the list must
        # name every check, in the battery's order.
        fib = PlanarFibration(PlanarSurface(2), [CurveClass.enclosing({1})])
        results = check_fibration(fib, random.Random(0))
        assert [c.name for c in results] == CHECK_NAMES

    def test_wall_route_runs_once_per_instance(self, monkeypatch, capsys, feed_stdin):
        # The order and sign checks compare boundary maps, so neither the
        # permuted nor the flipped copy runs the Wall route again, and
        # compute and examples read it from the one report they build.
        calls = {"standard_triple": 0, "wall_correction": 0}
        for name in calls:
            def counted(*args, _real=getattr(wall, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(fibration, name, counted)
        rng = random.Random(17)
        checked = 0
        while checked < 5:
            fib = random_fibration(rng, 6, 25)
            if fib.m == 0:
                continue
            results = check_fibration(fib, rng)
            assert [c.name for c in results] == CHECK_NAMES
            assert all(c.passed for c in results)
            checked += 1
            assert calls == {"standard_triple": checked, "wall_correction": checked}
        feed_stdin(THREE_CYCLES_DOC)
        for argv in (["compute", "-"], ["examples", "--family", "y1", "--r", "3"]):
            assert main(argv) == 0
            checked += 1
            assert calls == {"standard_triple": checked, "wall_correction": checked}
        capsys.readouterr()

    @pytest.mark.parametrize(
        "owner, name, mutant, check",
        [
            (
                fibration,
                "mapping_torus_boundary_map",
                lambda real: lambda r, vectors: real(r, tuple(vectors)[:-1]),
                "order-invariance",
            ),
            (
                fibration,
                "mapping_torus_boundary_map",
                lambda real: lambda r, vectors: real(
                    r,
                    (vectors[0], *vectors)
                    if vectors and next(x for x in vectors[0] if x) > 0
                    else vectors,
                ),
                "sign-invariance",
            ),
            (
                PlanarFibration,
                "cycle_span_dim",
                lambda real: lambda self: real(self)
                + any(1 in c.encloses for c in self.cycles[:1]),
                "order-invariance",
            ),
        ],
        ids=["drop-last-cycle", "double-positive-first-cycle", "span-dim-of-first-cycle"],
    )
    def test_invariance_checks_fail_order_and_sign_dependent_maps(
        self, monkeypatch, owner, name, mutant, check
    ):
        # A boundary map that depends on the cycle order (the last cycle
        # dropped) or on a cycle's sign (the first cycle counted twice
        # when its first nonzero entry is positive), or a span dimension
        # that depends on the order (one more when the first cycle
        # encloses circle 1), must fail the check that perturbs it.  A
        # check that compared only Wall corrections would pass the
        # second mutant on every one of these instances.
        monkeypatch.setattr(owner, name, mutant(getattr(owner, name)))
        rng = random.Random(3)
        failed = 0
        for _ in range(50):
            fib = random_fibration(rng, 6, 25)
            results = {c.name: c.passed for c in check_fibration(fib, rng)}
            failed += not results.get(check, True)
        assert failed > 0


class TestBugExit:
    @pytest.mark.parametrize("fmt", ["json", "table"])
    @pytest.mark.parametrize(
        "argv, stdin, message",
        [
            (["compute", "-"], THREE_CYCLES_DOC, "the two signature computations disagree"),
            (
                ["examples", "--family", "y1", "--r", "3"],
                None,
                "computed report contradicts the family's closed form",
            ),
        ],
        ids=["compute", "examples"],
    )
    def test_disagreement_prints_the_report_and_exits_four(
        self, capsys, feed_stdin, monkeypatch, argv, stdin, message, fmt
    ):
        # A closed form that is off by one disagrees with the Wall route.
        real = PlanarFibration.cycle_span_dim
        monkeypatch.setattr(PlanarFibration, "cycle_span_dim", lambda self: real(self) + 1)
        feed_stdin(stdin or "")
        assert main([*argv, "--format", fmt]) == 4
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}; this is a bug\n"
        if fmt == "json":
            out = json.loads(captured.out)
            report = out.get("report", out)
            assert report["oracle_agrees"] is False
            assert report["sigma"] == report["oracle_sigma"] + 1
            assert "boundary_map" in report
        else:
            assert "oracle agrees              False\n" in captured.out
            assert captured.out.rstrip("\n").splitlines()[-1].startswith("  ")
            assert "boundary map:\n" in captured.out


class TestEntryPoint:
    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "planarsig" in capsys.readouterr().out

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "planarsig.cli", "--version"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "planarsig" in proc.stdout

    def test_module_compute_pipe(self):
        proc = subprocess.run(
            [sys.executable, "-m", "planarsig.cli", "compute", "-"],
            input=json.dumps(THREE_CYCLES_DOC),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["sigma"] == -1

    @pytest.mark.parametrize(
        "argv, document, read, unbuffered",
        [
            # About 600 KB of output, so print fails once the reader closes.
            (["compute", "-"], {"boundary_components": 161}, 10, False),
            # Output that fits the buffer: the failure comes from the flush
            # after the command returns.
            (["compute", "-"], THREE_CYCLES_DOC, 0, False),
            (["examples", "--family", "y1", "--r", "3"], None, 0, True),
            (["fuzz", "--count", "2"], None, 0, True),
        ],
        ids=["compute-large-output", "compute-buffered", "examples", "fuzz"],
    )
    def test_reader_closing_early_keeps_exit_code(self, argv, document, read, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "planarsig.cli", *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        if not read:
            proc.stdout.close()  # gone before the command writes anything
        proc.stdin.write(json.dumps(document).encode() if document else b"")
        proc.stdin.close()
        if read:
            assert len(proc.stdout.read(read)) == read
            proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 0
        assert err == b""


class TestParser:
    """``main`` builds its parser once per process and keeps no state on it."""

    def test_built_once_for_every_command(self, capsys, feed_stdin, monkeypatch):
        builds = []
        build = cli.build_parser

        def counted():
            builds.append(1)
            return build()

        monkeypatch.setattr(cli, "build_parser", counted)
        cli._parser.cache_clear()
        try:
            feed_stdin(THREE_CYCLES_DOC)
            assert main(["compute", "-"]) == 0
            assert main(["examples", "--family", "y1", "--r", "3"]) == 0
            assert main(["fuzz", "--count", "1"]) == 0
        finally:
            cli._parser.cache_clear()
        capsys.readouterr()
        assert builds == [1]

    def test_defaults_after_a_run_with_every_option(self, capsys):
        assert main(["fuzz", "--seed", "5", "--count", "1", "--max-r", "3"]) == 0
        capsys.readouterr()
        assert main(["fuzz", "--count", "0"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert (summary["seed"], summary["max_r"], summary["max_m"]) == (0, 4, 10)

    # argparse words its help differently across Python versions, so the
    # cached parser is compared with a fresh one in the same interpreter.
    @pytest.mark.parametrize(
        "argv, code, stream",
        [
            (["--help"], 0, "out"),
            (["compute", "--help"], 0, "out"),
            (["fuzz", "--help"], 0, "out"),
            (["compute", "--format", "xml"], 2, "err"),
        ],
        ids=["help", "compute-help", "fuzz-help", "usage-error"],
    )
    def test_help_and_usage_match_a_fresh_parser(
        self, capsys, feed_stdin, monkeypatch, argv, code, stream
    ):
        monkeypatch.setenv("COLUMNS", "80")

        def printed(parse):
            with pytest.raises(SystemExit) as info:
                parse(argv)
            assert info.value.code == code
            return getattr(capsys.readouterr(), stream)

        for _ in range(3):
            feed_stdin(THREE_CYCLES_DOC)
            assert main(["compute", "-"]) == 0
            assert main(["fuzz", "--count", "1"]) == 0
            printed(main)
        expected = printed(cli.build_parser().parse_args)
        assert expected.startswith("usage: planarsig")
        assert printed(main) == expected
