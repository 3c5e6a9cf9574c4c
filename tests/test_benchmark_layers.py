"""The benchmark's per-layer tracer must find every name it wraps.

``benchmarks/layers.py`` wraps package functions by name and requires
each of them to be called by every op of a workload; a rename or a
function that a command stops calling makes a traced benchmark run
fail.  This test runs one small ``compute`` and one small ``fuzz``
under the tracer so that such a change fails here first.  The
benchmark directory is only read.
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


@pytest.mark.parametrize(
    "command, argv",
    [
        ("compute", ["compute", "-"]),
        ("fuzz", ["fuzz", "--seed", "1", "--count", "2", "--max-r", "6", "--max-m", "25"]),
    ],
    ids=["compute", "fuzz"],
)
def test_every_required_layer_is_called(layers, monkeypatch, capsys, command, argv):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(THREE_CYCLES_DOC)))
    tracer = layers.LayerTracer()
    tracer.install()
    try:
        assert main(argv) == 0
    finally:
        tracer.remove()
    capsys.readouterr()
    missing = [key for key in layers.required_keys(command) if not tracer.calls[key]]
    assert missing == []
