"""The benchmark's tracer binds heatlocal attributes by name; they must resolve."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_perfbench_span_bindings_resolve(tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import runner

    tracer = runner.Tracer()
    try:
        # each wrap reads the attribute it replaces, so a renamed one raises here
        runner.install_suite_spans(tracer, 0)
        runner.install_localtime_spans(tracer)
        out = tmp_path / "lt.csv"
        argv = ["localtime", "--reps", "4", "--grid", "64", "--eps", "0.5,0.25", "--out", str(out)]
        assert runner.cli.main(argv) == 0
    finally:
        tracer.restore()
    spans = [s for s in tracer.spans if s["name"] == "mc.run_replicates"]
    assert [s["replicates"] for s in spans] == [4]
    assert out.read_text().startswith("eps,")
