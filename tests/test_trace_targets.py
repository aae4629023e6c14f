"""The benchmark's per-layer trace still binds to the code it times: every
``layer_targets`` entry is rebound, and the two ``swaps`` generators are
driven through the tracer's generator wrapper, which needs them to keep
their names and stay generator functions. The oracle must also still call the
two trap predicates by the names the tracer rebinds."""

import sys
from pathlib import Path

import loopygraphs
import loopygraphs.cli  # noqa: F401  (the tracer rebinds names in the front end too)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402


def test_layer_targets_trace_the_swap_generators(capsys):
    tracer = tracing.Tracer(loopygraphs)
    tracer.install(tracing.layer_targets(tracer))
    try:
        report = loopygraphs.oracle.verify_sequence((3, 3, 2, 2))
        assert loopygraphs.cli.main(["check", "--seq", "3,3,2,2"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    totals, counts = tracer.take()
    assert report["n_graphs"] > 1
    for name in ("swaps.double_neighbor_edge_sets", "swaps.triangle_neighbor_edge_sets",
                 "oracle.verify_sequence", "graph.trap_predicates", "cli.main",
                 "degseq.check_connectivity", "degseq.detect_disconnected"):
        assert totals[name][0] > 0, name
    assert counts["swaps.double_neighbor_edge_sets.yielded"] > 0
    assert counts["oracle.graphs"] == report["n_graphs"]
    # verify_sequence's own detector call is the only one in this run
    assert totals["degseq.detect_disconnected"][0] == 1
    # uninstalling restores the package's own functions
    for fn in (loopygraphs.oracle.verify_sequence, loopygraphs.oracle.double_neighbor_edge_sets):
        assert not hasattr(fn, "__wrapped__"), fn
