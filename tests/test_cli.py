"""Command line behavior: output formats, stream separation, and exit codes."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from loopygraphs.cli import main
from loopygraphs.degseq import is_loopy_graphical, max_loop_count, parse_degree_sequences
from loopygraphs.graph import parse_edge_list
from loopygraphs.oracle import verify_sequence

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_check_text_disconnected(capsys):
    rc, out, err = run_cli(capsys, "check", "--seq", "2,2,2,2")
    assert rc == 0
    assert "disconnected" in out
    assert "cycle" in out
    assert "stranded witness" in out


def test_check_text_connected(capsys):
    rc, out, _ = run_cli(capsys, "check", "--seq", "3,3,2,2")
    assert rc == 0
    assert "connected" in out
    assert "witness" not in out


def test_check_json(capsys):
    rc, out, _ = run_cli(capsys, "check", "--seq", "4,4,3,3,2,2,2", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["sequence"] == [4, 4, 3, 3, 2, 2, 2]
    assert obj["loopy_graphical"] is True
    assert obj["m_star"] == 7
    assert obj["status"] == "connected"
    assert obj["method"] == "max_degree_bound"
    assert "witness" not in obj


@pytest.fixture
def max_loop_calls(monkeypatch):
    """The sequences ``degseq.max_loop_count`` is called on, in order."""
    import loopygraphs.degseq as degseq

    calls = []
    real = degseq.max_loop_count

    def counted(degrees):
        calls.append(tuple(degrees))
        return real(degrees)

    monkeypatch.setattr(degseq, "max_loop_count", counted)
    return calls


def test_check_json_decides_each_sequence_once(capsys, max_loop_calls):
    # disconnected, certified by the degree bound, degenerate
    seqs = [(2, 2, 2, 2), (4, 4, 3, 3, 2, 2, 2), (1, 1)]
    argv = ["check", "--format", "json"]
    for ds in seqs:
        argv += ["--seq", ",".join(map(str, ds))]
    rc, out, _ = run_cli(capsys, *argv)
    assert rc == 0
    assert max_loop_calls == seqs
    objs = [json.loads(line) for line in out.strip().splitlines()]
    assert [obj["method"] for obj in objs] == ["peeling", "max_degree_bound", "degenerate"]
    assert [obj["m_star"] for obj in objs] == [max_loop_count(ds) for ds in seqs]


def test_sample_auto_epsilon_works_out_m_star_once_per_decision(capsys, max_loop_calls):
    # auto epsilon decides the space once and picks 0; prepare_chain's guard
    # decides it again and builds the start graph from that verdict's m*
    rc, out, err = run_cli(capsys, "sample", "--seq", "3,3,2,2", "--count", "2",
                           "--seed", "1", "--format", "json")
    assert rc == 0
    assert json.loads(err)["triangle_prob"] == 0.0
    assert len(out.strip().splitlines()) == 2
    assert max_loop_calls == [(3, 3, 2, 2)] * 2


def test_check_json_witness_realizes_sequence(capsys):
    rc, out, _ = run_cli(capsys, "check", "--seq", "6,3,3,3,3", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["status"] == "disconnected"
    assert obj["detail"] == "hub_triangle"
    degs = [0] * len(obj["sequence"])
    for u, v in obj["witness"]:
        degs[u] += 2 if u == v else 1
        if u != v:
            degs[v] += 1
    assert degs == obj["sequence"]


def test_check_infeasible_sequence_fails(capsys):
    rc, _, err = run_cli(capsys, "check", "--seq", "3,2")
    assert rc == 1
    assert "error:" in err


def test_unparseable_sequence(capsys):
    rc, _, err = run_cli(capsys, "check", "--seq", "2,x")
    assert rc == 2
    assert "error:" in err


def test_seq_and_seq_file_are_exclusive(tmp_path, capsys):
    path = tmp_path / "seqs.txt"
    path.write_text("2,2,2\n")
    rc, _, err = run_cli(capsys, "check", "--seq", "2,2,2", "--seq-file", str(path))
    assert rc == 2
    rc, _, err = run_cli(capsys, "check")
    assert rc == 2


def test_seq_file_input(tmp_path, capsys):
    path = tmp_path / "seqs.txt"
    path.write_text("# two spaces\n2,2,2\n3,3,2,2\n")
    rc, out, _ = run_cli(capsys, "check", "--seq-file", str(path))
    assert rc == 0
    assert len(out.strip().splitlines()) == 3  # verdict, witness line, verdict


def test_missing_seq_file(capsys):
    rc, _, err = run_cli(capsys, "check", "--seq-file", "/nonexistent/seqs.txt")
    assert rc == 2


def test_repeatable_seq_flag(capsys):
    rc, out, _ = run_cli(capsys, "check", "--seq", "2,2,2", "--seq", "4,4,2",
                         "--format", "json")
    assert rc == 0
    lines = out.strip().splitlines()
    assert [json.loads(l)["sequence"] for l in lines] == [[2, 2, 2], [4, 4, 2]]


def test_sample_text_blocks(capsys):
    rc, out, err = run_cli(capsys, "sample", "--seq", "3,3,2,2", "--count", "3",
                           "--seed", "1")
    assert rc == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 3
    for block in blocks:
        g = parse_edge_list(block)
        assert g.degree_sequence() == (3, 3, 2, 2)
    stats = json.loads(err)
    assert stats["samples"] == 3
    assert {"steps", "accepted_double", "accepted_triangle", "rejected"} <= set(stats)
    assert stats["steps"] == stats["accepted_double"] + stats["accepted_triangle"] \
        + stats["rejected"]


def test_sample_json_lines(capsys):
    rc, out, err = run_cli(capsys, "sample", "--seq", "3,3,2,2", "--count", "2",
                           "--seed", "1", "--format", "json")
    assert rc == 0
    for line in out.strip().splitlines():
        edges = json.loads(line)["edges"]
        degs = [0] * 4
        for u, v in edges:
            degs[u] += 2 if u == v else 1
            if u != v:
                degs[v] += 1
        assert sorted(degs, reverse=True) == [3, 3, 2, 2]


def test_sample_deterministic_under_seed(capsys):
    args = ("sample", "--seq", "3,3,2,2", "--count", "5", "--seed", "7",
            "--format", "json")
    rc1, out1, _ = run_cli(capsys, *args)
    rc2, out2, _ = run_cli(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_sample_auto_epsilon_on_disconnected_space(capsys):
    rc, out, err = run_cli(capsys, "sample", "--seq", "2,2,2,2", "--count", "1",
                           "--seed", "0")
    assert rc == 0
    assert json.loads(err)["triangle_prob"] == 0.05


def test_sample_auto_epsilon_on_connected_space(capsys):
    rc, out, err = run_cli(capsys, "sample", "--seq", "4,4,3,3,2,2,2",
                           "--count", "1", "--seed", "0")
    assert rc == 0
    assert json.loads(err)["triangle_prob"] == 0.0


def test_sample_zero_epsilon_rejected_when_disconnected(capsys):
    rc, _, err = run_cli(capsys, "sample", "--seq", "2,2,2,2", "--epsilon", "0")
    assert rc == 1
    assert "disconnected" in err


def test_sample_bad_epsilon(capsys):
    rc, _, err = run_cli(capsys, "sample", "--seq", "3,3,2,2", "--epsilon", "1.5")
    assert rc == 1
    rc, _, err = run_cli(capsys, "sample", "--seq", "3,3,2,2", "--epsilon", "nope")
    assert rc == 2


def test_sample_single_graph_space(capsys):
    rc, out, err = run_cli(capsys, "sample", "--seq", "1,1", "--count", "2",
                           "--format", "json")
    assert rc == 0
    assert out.strip().splitlines() == ['{"edges": [[0, 1]]}'] * 2
    assert json.loads(err)["steps"] == 0


def test_sample_requires_single_sequence(capsys):
    rc, _, err = run_cli(capsys, "sample", "--seq", "2,2,2", "--seq", "3,3,2,2")
    assert rc == 2


def test_sample_negative_count(capsys):
    rc, out, err = run_cli(capsys, "sample", "--seq", "3,3,2,2", "--count", "-1")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "--count" in err


def test_sample_stats_follow_output_to_file(tmp_path, capsys):
    out_path = tmp_path / "samples.txt"
    rc, out, err = run_cli(capsys, "sample", "--seq", "3,3,2,2", "--count", "2",
                           "--seed", "3", "--out", str(out_path))
    assert rc == 0
    assert err == ""
    assert json.loads(out)["samples"] == 2  # stats on stdout when samples go to a file
    assert out_path.read_text().count("# n=4") == 2


def test_enumerate_text(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "--seq", "2,2,2")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# sequence=2,2,2 count=2"
    assert lines[1] == "0,0 1,1 2,2"
    assert lines[2] == "0,1 0,2 1,2"


def test_enumerate_json(capsys):
    rc, out, _ = run_cli(capsys, "enumerate", "--seq", "2,2,2,2", "--format", "json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["count"] == 8
    assert len(obj["graphs"]) == 8


def test_enumerate_bound_exceeded(capsys):
    rc, _, err = run_cli(capsys, "enumerate", "--seq", "6,3,3,3,3")
    assert rc == 1
    assert "error:" in err
    rc, out, _ = run_cli(capsys, "enumerate", "--seq", "6,3,3,3,3",
                         "--max-sum", "18", "--format", "json")
    assert rc == 0
    assert json.loads(out)["count"] == 8


def test_verify_json_matches_library(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--seq", "2,2,2", "--format", "json")
    assert rc == 0
    assert json.loads(out) == verify_sequence((2, 2, 2))


def test_verify_text(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--seq", "5,3,3,3")
    assert rc == 0
    assert "2 graphs" in out
    assert "q2=1" in out
    assert "FAIL" not in out


def test_verify_writes_dot(tmp_path, capsys):
    dot_path = tmp_path / "space.dot"
    rc, _, _ = run_cli(capsys, "verify", "--seq", "2,2,2", "--dot", str(dot_path))
    assert rc == 0
    assert dot_path.read_text().startswith("graph swapspace {")


def test_verify_dot_needs_single_sequence(capsys):
    rc, _, err = run_cli(capsys, "verify", "--seq", "2,2,2", "--seq", "4,4,2",
                         "--dot", "/tmp/unused.dot")
    assert rc == 2


def test_sweep_text_summary(capsys):
    rc, out, _ = run_cli(capsys, "sweep", "--max-sum", "6", "--workers", "1")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[-1].startswith("# 14 sequences,")
    assert "all checks passed" in lines[-1]


def test_sweep_json_to_file(tmp_path, capsys):
    out_path = tmp_path / "reports.jsonl"
    rc, _, _ = run_cli(capsys, "sweep", "--max-sum", "4", "--workers", "1",
                       "--format", "json", "--out", str(out_path))
    assert rc == 0
    reports = [json.loads(l) for l in out_path.read_text().splitlines()]
    assert [r["sequence"] for r in reports] == [[2], [1, 1], [3, 1], [2, 2],
                                                [2, 1, 1], [1, 1, 1, 1]]
    assert all(all(r["checks"].values()) for r in reports)


def test_parse_degree_sequences_round_trips_cli_seq_format():
    assert parse_degree_sequences("5,3,3,3") == [(5, 3, 3, 3)]


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def run_module(module, *argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


def test_python_m_package_runs_cli():
    proc = run_module("loopygraphs", "check", "--seq", "2,2,2,2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("2,2,2,2: disconnected [peeling] cycle")


def test_python_m_cli_module_runs_cli():
    proc = run_module("loopygraphs.cli", "check", "--seq", "1,1,1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: no loopy graph realizes")


def check_batch_sequences():
    """Sequences of the kinds a ``check`` batch mixes: two heavy-tailed ones
    whose degree-1 share holds m* far below the number of entries >= 2, three
    certified by the degree bound, one of each form the detector names, and
    the 363 small sequences of degree sums 16-22."""
    rng = random.Random(2)
    heavy = []
    while len(heavy) < 2:
        ds = [1] * 840 + [300] * 6 + [min(300, int(2 * (1.0 - rng.random()) ** (-1 / 1.2)))
                                      for _ in range(654)]
        if sum(ds) % 2:
            ds[-1] += 1
        rng.shuffle(ds)
        if is_loopy_graphical(ds):
            heavy.append(ds)
    certified = []
    for _ in range(3):
        ds = [rng.randint(1, 40) for _ in range(2000)]
        if sum(ds) % 2:
            ds[0] += 1 if ds[0] < 40 else -1
        certified.append(ds)
    forms = [[2] * 300, [24] * 25, [12] * 3 + [10] * 8, [10] * 3 + [5] * 6]
    for ds in forms:
        rng.shuffle(ds)
    small = [[int(d) for d in key.split(",")]
             for key in sorted(json.loads(REFERENCE.read_text())["small_check"])]
    seqs = heavy + certified + forms + small
    rng.shuffle(seqs)
    return seqs


def test_check_batch_output_is_pinned(tmp_path):
    """The bytes ``check --format json`` writes for a mixed batch, pinned by a
    digest recorded from the loop-count scan that re-sorted once per count."""
    seq_file = tmp_path / "batch.seq"
    out_file = tmp_path / "batch.jsonl"
    seq_file.write_text("".join(",".join(map(str, ds)) + "\n" for ds in check_batch_sequences()))
    assert main(["check", "--seq-file", str(seq_file), "--format", "json",
                 "--out", str(out_file)]) == 0
    output = out_file.read_bytes()
    objs = [json.loads(line) for line in output.splitlines()]
    assert len(objs) == 372
    assert {"cycle", "clique", "looped_clique", "hub_triangle"} <= {o["detail"] for o in objs}
    # the heavy sequences: m* far below the 660 entries >= 2
    assert sorted(o["m_star"] for o in objs if len(o["sequence"]) == 1500) == [335, 542]
    assert hashlib.sha256(output).hexdigest() == "701a35af41e6363bb18fa664e07f20fa50da3f0dd194b927ed26f3a1a6304f67"
