import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarsig.cli import DocumentError, _matrix_strings, load_document, main
from planarsig.fibration import PlanarFibration
from planarsig.linalg import RationalMatrix, Subspace
from planarsig.properties import CHECK_NAMES, check_fibration
from planarsig.surfaces import CurveClass, PlanarSurface

GOLDEN = pathlib.Path(__file__).parent / "golden"

THREE_CYCLES_DOC = {
    "boundary_components": 3,
    "vanishing_cycles": [
        {"encloses": [1]},
        {"encloses": [2]},
        {"encloses": [1, 2]},
    ],
}


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

    def test_missing_file(self, capsys):
        assert main(["compute", "/no/such/file.json"]) == 2
        assert "error" in capsys.readouterr().err

    def test_table_format(self, capsys, feed_stdin):
        feed_stdin(THREE_CYCLES_DOC)
        code = main(["compute", "-", "--format", "table"])
        out = capsys.readouterr().out
        assert code == 0
        assert "signature" in out
        assert "-1" in out
        assert "boundary map" in out

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
        # against.
        def refuse(*args):
            raise AssertionError("the Wall route called a closed form")

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "planarsig"]
        for module in modules:
            for name in ("psi_gram_closed_form", "lplus_closed_form"):
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
        doc = {
            "boundary_components": 4,
            "vanishing_cycles": [
                {"encloses": [0, 2]},
                {"class": [1, 0, -1]},
                {"encloses": [3]},
            ],
        }
        feed_stdin(doc)
        code, out = run_compute(capsys, doc)
        assert code == 0
        first = json.loads(out)
        feed_stdin(first["input"])
        code, out = run_compute(capsys, first["input"])
        assert code == 0
        second = json.loads(out)
        assert second["input"] == first["input"]
        for key in ("m", "r", "d", "sigma", "b1", "b2", "euler"):
            assert second[key] == first[key]


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
        ],
    )
    def test_invalid_documents_exit_two(self, capsys, feed_stdin, payload, fragment):
        feed_stdin(payload)
        assert main(["compute", "-"]) == 2
        err = capsys.readouterr().err
        assert fragment in err

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
        doc = {"boundary_components": 3, "vanishing_cycles": [{"class": [0, 0]}]}
        feed_stdin(doc)
        assert main(["compute", "-"]) == 3
        err = capsys.readouterr().err
        assert "null-homologous" in err
        assert "--force" in err

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
    """Whatever the input, ``load_document`` returns or raises DocumentError."""

    @staticmethod
    def load_or_reject(text):
        try:
            load_document(text)
        except DocumentError:
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
        assert "error" in capsys.readouterr().err

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
        assert main(["fuzz", "--count", "-1"]) == 2

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
        assert doc.r == r
        reloaded = doc.to_fibration().class_vectors()
        assert len(reloaded) == len(vectors)
        for v, w in zip(reloaded, vectors):
            assert v in (w, tuple(-x for x in w))

    def test_check_names_list_the_battery(self):
        # The summary counts passes under CHECK_NAMES, so the list must
        # name every check, in the battery's order.
        fib = PlanarFibration(PlanarSurface(2), [CurveClass.enclosing({1})])
        results = check_fibration(fib, random.Random(0))
        assert [c.name for c in results] == CHECK_NAMES


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
