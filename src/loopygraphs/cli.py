"""Command line front end.

Subcommands: ``check`` (connectivity verdict for the swap space), ``sample``
(random realizations from the chain), ``enumerate`` (every realization, small
sequences only), ``verify`` (brute-force consistency checks for one or more
sequences), and ``sweep`` (verify across all small sequences).

Exit codes: 0 on success (for ``check``, either verdict counts as success);
1 on a domain failure (sequence not realizable, sampler configuration that
cannot work, a failed verification check, an oracle bound overrun); 2 on
unparseable arguments or I/O errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext

from .degseq import (
    DISCONNECTED,
    NotLoopyGraphical,
    check_connectivity,
    parse_degree_sequences,
)
from .graph import LoopyGraph, format_edge_list
from .mcmc import (
    ChainConfig,
    ChainStats,
    ConfigError,
    DegenerateGraph,
    default_thinning,
    default_triangle_prob,
    prepare_chain,
)
from .oracle import (
    DEFAULT_ENUM_BOUND,
    BoundExceeded,
    build_swap_graph,
    enumerate_loopy_graphs,
    run_sweep,
    to_dot,
    verify_sequence,
)

__all__ = ["main", "entrypoint"]


class UsageError(ValueError):
    """Bad command line input."""


def _fmt_seq(ds) -> str:
    return ",".join(str(d) for d in ds)


def _edges_line(graph: LoopyGraph) -> str:
    return " ".join(f"{u},{v}" for u, v in sorted(graph.edges))


def _sequences(args) -> list[tuple[int, ...]]:
    if bool(args.seq) == bool(args.seq_file):
        raise UsageError("provide degree sequences via exactly one of --seq or --seq-file")
    seqs: list[tuple[int, ...]] = []
    for raw in args.seq:
        seqs.extend(parse_degree_sequences(raw))
    if args.seq_file:
        with open(args.seq_file) as fh:
            seqs.extend(parse_degree_sequences(fh.read()))
    if not seqs:
        raise UsageError("no degree sequences found")
    return seqs


def _out_stream(args):
    return open(args.out, "w") if args.out else nullcontext(sys.stdout)


def cmd_check(args) -> int:
    # either verdict is a successful run; only infeasible input is a failure
    with _out_stream(args) as fh:
        for ds in _sequences(args):
            report = check_connectivity(ds)
            if args.format == "json":
                obj = {
                    "sequence": list(ds),
                    "loopy_graphical": True,
                    "m_star": report.m_star,
                    "status": report.status,
                    "method": report.method,
                    "detail": report.detail,
                }
                if report.witness is not None:
                    obj["witness"] = [list(e) for e in sorted(report.witness.edges)]
                fh.write(json.dumps(obj) + "\n")
            else:
                fh.write(f"{_fmt_seq(ds)}: {report.status} [{report.method}] {report.detail}\n")
                if report.witness is not None:
                    fh.write(f"  stranded witness: {_edges_line(report.witness)}\n")
    return 0


def cmd_enumerate(args) -> int:
    with _out_stream(args) as fh:
        for ds in _sequences(args):
            graphs = sorted(
                enumerate_loopy_graphs(ds, max_sum=args.max_sum),
                key=lambda g: tuple(sorted(g.edges)),
            )
            if args.format == "json":
                obj = {
                    "sequence": list(ds),
                    "n": len(ds),
                    "count": len(graphs),
                    "graphs": [[list(e) for e in sorted(g.edges)] for g in graphs],
                }
                fh.write(json.dumps(obj) + "\n")
            else:
                fh.write(f"# sequence={_fmt_seq(ds)} count={len(graphs)}\n")
                for g in graphs:
                    fh.write(_edges_line(g) + "\n")
    return 0


def cmd_sample(args) -> int:
    seqs = _sequences(args)
    if len(seqs) != 1:
        raise UsageError("sample takes exactly one degree sequence")
    if args.count < 0:
        raise UsageError("--count must be >= 0")
    ds = seqs[0]
    if args.epsilon == "auto":
        eps = default_triangle_prob(ds)
    else:
        eps = float(args.epsilon)
    cfg = ChainConfig(
        triangle_prob=eps,
        mode=args.mode,
        seed=args.seed,
        burn_in=args.burnin,
        thinning=args.thin,
    )
    chain, initial = prepare_chain(ds, cfg)
    thin = cfg.thinning if cfg.thinning is not None else default_thinning(len(initial.edges))
    with _out_stream(args) as fh:
        for idx in range(args.count):
            if chain is None:
                g = initial
            else:
                chain.run(thin)
                g = chain.current()
            if args.format == "json":
                fh.write(json.dumps({"edges": [list(e) for e in sorted(g.edges)]}) + "\n")
            else:
                if idx:
                    fh.write("\n")
                fh.write(format_edge_list(g))
    stats = chain.stats if chain is not None else ChainStats()
    summary = {
        "sequence": list(ds),
        "mode": cfg.mode,
        "triangle_prob": eps,
        "samples": args.count,
        **stats.as_dict(),
    }
    # keep the sample stream clean: stats go to stderr unless samples went to a file
    stats_fh = sys.stdout if args.out else sys.stderr
    stats_fh.write(json.dumps(summary) + "\n")
    return 0


def cmd_verify(args) -> int:
    seqs = _sequences(args)
    if args.dot and len(seqs) != 1:
        raise UsageError("--dot needs exactly one degree sequence")
    rc = 0
    with _out_stream(args) as fh:
        for ds in seqs:
            report = verify_sequence(ds, max_sum=args.max_sum)
            if not all(report["checks"].values()):
                rc = 1
            _write_report(fh, args.format, report)
    if args.dot:
        sg = build_swap_graph(enumerate_loopy_graphs(seqs[0], max_sum=args.max_sum))
        with open(args.dot, "w") as fh:
            fh.write(to_dot(sg))
    return rc


def _write_report(fh, fmt: str, report: dict):
    if fmt == "json":
        fh.write(json.dumps(report) + "\n")
        return
    checks = " ".join(f"{k}:{'ok' if v else 'FAIL'}" for k, v in sorted(report["checks"].items()))
    status = "disconnected" if report["disconnected"] else "connected"
    fh.write(
        f"{_fmt_seq(report['sequence'])}: {report['n_graphs']} graphs, "
        f"{report['components_double']} swap component(s), "
        f"{report['components_triangle']} with triangle moves, {status}, "
        f"q1={report['q1_count']} q2={report['q2_count']} | {checks}\n"
    )


def cmd_sweep(args) -> int:
    reports = run_sweep(args.max_sum, workers=args.workers)
    rc = 0
    with _out_stream(args) as fh:
        for report in reports:
            if not all(report["checks"].values()):
                rc = 1
            _write_report(fh, args.format, report)
        if args.format == "text":
            n_dis = sum(1 for r in reports if r["disconnected"])
            verdict = "all checks passed" if rc == 0 else "CHECK FAILURES"
            fh.write(f"# {len(reports)} sequences, {n_dis} disconnected, {verdict}\n")
    return rc


def _add_common(sp, with_seq: bool = True):
    if with_seq:
        sp.add_argument("--seq", action="append", default=[], metavar="D,D,...",
                        help="degree sequence such as 5,3,3,3 (repeatable)")
        sp.add_argument("--seq-file", metavar="PATH",
                        help="file with one degree sequence per line")
    sp.add_argument("--out", metavar="PATH", help="write results here instead of stdout")
    sp.add_argument("--format", choices=("text", "json"), default="text")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="loopygraphs",
        description="Swap-space connectivity, uniform sampling, and brute-force "
                    "verification for graphs with at most one self-loop per vertex.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide whether double swaps alone reach every realization")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("sample", help="draw random realizations from the swap chain")
    _add_common(p)
    p.add_argument("--count", type=int, default=1, help="number of samples (default 1)")
    p.add_argument("--epsilon", default="auto",
                   help="triangle move probability in [0, 1), or 'auto' (default)")
    p.add_argument("--mode", choices=("vertex", "stub"), default="vertex",
                   help="vertex: uniform target; stub: weight 2**(-loops)")
    p.add_argument("--seed", type=int, help="RNG seed for reproducible runs")
    p.add_argument("--burnin", type=int, help="steps to discard before sampling")
    p.add_argument("--thin", type=int, help="steps between retained samples")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("enumerate", help="list every realization (small sequences only)")
    _add_common(p)
    p.add_argument("--max-sum", type=int, default=DEFAULT_ENUM_BOUND,
                   help=f"refuse degree sums above this (default {DEFAULT_ENUM_BOUND})")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="brute-force the space and run consistency checks")
    _add_common(p)
    p.add_argument("--max-sum", type=int, default=18,
                   help="refuse degree sums above this (default 18)")
    p.add_argument("--dot", metavar="PATH",
                   help="also write the swap meta-graph as GraphViz (single sequence only)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="verify every loopy-graphical sequence up to a degree sum")
    _add_common(p, with_seq=False)
    p.add_argument("--max-sum", type=int, default=10,
                   help="largest degree sum to sweep (default 10)")
    p.add_argument("--workers", type=int,
                   help="process count (default: LOOPY_THREADS or CPU count)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NotLoopyGraphical, ConfigError, DegenerateGraph, BoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint():
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
