"""Spans around the calls into loopygraphs' public functions, recorded from
the benchmark's side by rebinding module attributes.

A function imported into several modules (``from .degseq import
max_loop_count``) is rebound in every module that holds it, so calls between
the package's own modules are seen too. Each call is one span; a generator
is timed across each of its resumptions. Spans nest on one stack, so a
span's self time is its duration minus the time of the spans it caused.
Totals are aggregated as calls happen; the first ``span_cap`` spans are also
kept in memory and written out when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import wraps

_clock = time.perf_counter


class Tracer:
    def __init__(self, package, span_cap: int = 20000):
        self.package = package
        self.modules = [package] + [getattr(package, m) for m in
                                    ("graph", "degseq", "swaps", "mcmc", "oracle", "cli")]
        self.span_cap = span_cap
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.request = 0  # the round (or "setup") the current spans belong to
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._next_id = 0
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, _clock(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list):
        end = _clock()
        self._stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, parent[0] if parent else None, self.request,
                               name, start, end))

    def wrap(self, name: str, fn, before=None, after=None):
        """``before(args)`` runs ahead of the call, ``after(args, result,
        token)`` after it, with ``token`` what ``before`` returned; neither
        is inside the span."""

        @wraps(fn)
        def traced(*args, **kwargs):
            token = before(args) if before else None
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            if after:
                after(args, result, token)
            return result

        return traced

    def wrap_generator(self, name: str, fn, count_key: str | None = None):
        """Time a generator function across every resumption; count what it
        yields under ``count_key``."""

        @wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(frame)
                if count_key:
                    self.counts[count_key] += 1
                yield item

        return traced

    def count(self, key: str, amount=1):
        self.counts[key] += amount

    # -- installing ---------------------------------------------------------

    def install(self, targets):
        """Rebind each target. ``targets`` holds ``(owner, attr, wrapper
        factory)``: a module-level function is replaced in every package
        module bound to it, a method on its class."""
        for owner, attr, make in targets:
            original = getattr(owner, attr)
            wrapper = make(original)
            if isinstance(owner, type):
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in self.modules:
                if mod.__dict__.get(attr) is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def take(self) -> tuple[dict, Counter]:
        """Totals and counts so far; both restart from zero."""
        totals, counts = self.totals, self.counts
        self.totals, self.counts = {}, Counter()
        return totals, counts


def setup_targets(tracer: Tracer, on_chain):
    """What every run rebinds during set-up: ``mcmc.prepare_chain``, whose
    duration is the sampler's set-up and whose chain ``on_chain`` receives."""
    mcmc = tracer.package.mcmc
    return [(mcmc, "prepare_chain",
             lambda f: tracer.wrap("mcmc.prepare_chain", f,
                                   after=lambda a, r, t: on_chain(r[0])))]


def layer_targets(tracer: Tracer):
    """Every public entry a per-layer metric reads, grouped by module."""
    pkg = tracer.package
    graph, degseq, swaps, mcmc, oracle, cli = (pkg.graph, pkg.degseq, pkg.swaps,
                                                pkg.mcmc, pkg.oracle, pkg.cli)
    w = tracer.wrap

    def chain_before(args):
        s = args[0].stats
        return (s.steps, s.accepted, s.accepted_triangle,
                s.accepted_triangle + s.rejected_triangle_invalid + s.rejected_triangle_filter)

    def chain_after(args, result, before):
        s = args[0].stats
        c = tracer.counts
        c["mcmc.steps"] += s.steps - before[0]
        c["mcmc.accepted"] += s.accepted - before[1]
        c["mcmc.triangle_accepted"] += s.accepted_triangle - before[2]
        c["mcmc.triangle_proposed"] += (s.accepted_triangle + s.rejected_triangle_invalid
                                        + s.rejected_triangle_filter) - before[3]

    def by_bound(args, report, _):
        if report.method == "max_degree_bound":
            tracer.counts["degseq.decided_by_bound"] += 1

    def graphs(args, report, _):
        tracer.counts["oracle.graphs"] += report["n_graphs"]

    return [
        (graph, "is_in_clique_trap", lambda f: w("graph.trap_predicates", f)),
        (graph, "is_in_cycle_trap", lambda f: w("graph.trap_predicates", f)),
        (degseq, "max_loop_count", lambda f: w("degseq.max_loop_count", f)),
        (degseq, "realize_loopy_graph", lambda f: w("degseq.realize_loopy_graph", f)),
        (degseq, "detect_disconnected", lambda f: w("degseq.detect_disconnected", f)),
        (degseq, "check_connectivity",
         lambda f: w("degseq.check_connectivity", f, after=by_bound)),
        (swaps, "double_neighbor_edge_sets",
         lambda f: tracer.wrap_generator("swaps.double_neighbor_edge_sets", f,
                                         "swaps.double_neighbor_edge_sets.yielded")),
        (swaps, "triangle_neighbor_edge_sets",
         lambda f: tracer.wrap_generator("swaps.triangle_neighbor_edge_sets", f)),
        (mcmc.LoopyChain, "run",
         lambda f: w("mcmc.run", f, before=chain_before, after=chain_after)),
        (mcmc.LoopyChain, "current", lambda f: w("mcmc.current", f)),
        (oracle, "verify_sequence", lambda f: w("oracle.verify_sequence", f, after=graphs)),
        (oracle, "generate_sequences", lambda f: w("oracle.generate_sequences", f)),
        (oracle, "run_sweep", lambda f: w("oracle.run_sweep", f)),
        (cli, "main", lambda f: w("cli.main", f)),
    ]
