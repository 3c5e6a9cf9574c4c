"""The benchmark's per-layer tracer must find every name it wraps.

``benchmarks/layers.py`` wraps package functions by name and requires
each of them to be called by every op of a workload; a rename or a
function that a command stops calling makes a traced benchmark run
fail.  This test runs two ``compute`` ops, a small one and one of the
compute-wide shape, and one small ``fuzz`` under the tracer so that
such a change fails here first.  The benchmark directory is only read.
"""

import io
import json
import pathlib
import sys

import pytest

from planarsig.cli import main

from test_cli import THREE_CYCLES_DOC

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import layers

    return layers


# On the wide document L- and L0 pin every coordinate, so their meet
# runs no elimination; the names it wraps must still be called.
WIDE_DOC = (pathlib.Path(__file__).parent / "golden" / "wide_r32_m2.json").read_text()


@pytest.mark.parametrize(
    "command, argv, document",
    [
        ("compute", ["compute", "-"], json.dumps(THREE_CYCLES_DOC)),
        ("compute", ["compute", "-"], WIDE_DOC),
        ("fuzz", ["fuzz", "--seed", "1", "--count", "2", "--max-r", "6", "--max-m", "25"], ""),
    ],
    ids=["compute", "compute-wide", "fuzz"],
)
def test_every_required_layer_is_called(layers, monkeypatch, capsys, command, argv, document):
    # Build main's parser before the tracer goes in, as a benchmark run
    # does: a parser that held the command functions would then run the
    # unwrapped ones, and their calls would read 0.
    assert main(["fuzz", "--count", "0"]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(document))
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        assert main(argv) == 0
    finally:
        tracer.remove()
    capsys.readouterr()
    missing = [key for key in layers.required_keys(command) if not tracer.calls[key]]
    assert missing == []
