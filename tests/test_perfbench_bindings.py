"""The benchmark's tracer binds heatlocal attributes by name; they must resolve."""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def runner(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    import runner

    return runner


def test_perfbench_span_bindings_resolve(runner, tmp_path, capsys):
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


def test_perfbench_suite_trace_names_every_family(runner, tmp_path, capsys):
    # the suite trace tells the families apart by the master_seed keyword
    # that verify passes to run_replicates
    seed = 11
    tracer = runner.Tracer()
    try:
        runner.install_suite_spans(tracer, seed)
        argv = ["verify", "--seed", str(seed), "--reps", "8", "--grid", "1024",
                "--eps", "0.08,0.04", "--out", str(tmp_path / "v.csv")]
        # a handful of replicates can fail a sampled claim on working code
        assert runner.cli.main(argv) in (0, 1)
    finally:
        tracer.restore()
    # one span per block: verify_all calls each block through its module attribute
    blocks = [s["name"] for s in tracer.spans if s["name"].startswith("verify.")]
    assert sorted(blocks) == sorted(
        f"verify.{b}" for b in ("spectral", "gram", "moments", "covariance", "localtime")
    )
    families = [s for s in tracer.spans if s["name"].startswith("mc.family.")]
    got = {s["name"]: s["replicates"] for s in families}
    assert len(got) == len(families)
    assert got == {
        "mc.family.mc-bridge": 8,
        "mc.family.mc-heat-short": 8,
        "mc.family.qf-mc": 16,
        "mc.family.sim-path": 32,
        "mc.family.sim-sheet": 2,
    }
    # the span name reads the order from the first positional argument
    simplex = [s["name"] for s in tracer.spans if s["name"].startswith("gram.simplex_")]
    assert sorted(simplex) == ["gram.simplex_k1", "gram.simplex_k2", "gram.simplex_k3"]
