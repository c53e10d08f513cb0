"""The traced pass: which public entry points get a span, and the
per-layer numbers computed from those spans.

Layers follow the package layout: ``core`` (``DeltaBuildMixin``
skeleton and delta builds), ``solvers`` (family predicates and the
public exact solvers), ``kernels`` (``solvers.batch_kernels``),
``sweep`` (``core.family.sweep``), ``store`` (``SweepStore``),
``fanout`` (``warm_pool.pool_decisions``), ``congest``
(``CongestSimulator.run``), ``cc`` (``simulate_two_party``) and
``runner`` (``run_experiment``).
"""

from __future__ import annotations

import inspect
import time
from typing import Any, Dict, List, Tuple

import spans as sp

#: solver-package exports that are cache plumbing, not solvers
_NOT_SOLVERS = {"cache_stats", "cached", "canonical_repr", "clear_cache",
                "configure_cache", "default_cache_dir", "reset_cache_stats"}


class CutSink:
    """A tracer of the benchmark's own: sums message bits over edges
    whose endpoints lie on different sides of a vertex bipartition."""

    enabled = True

    def __init__(self, alice_uids) -> None:
        self.alice = set(alice_uids)
        self.bits = 0

    def emit(self, event: Any) -> None:
        if event.kind != "message":
            return
        data = event.data
        if (data["sender"] in self.alice) != (data["receiver"] in self.alice):
            self.bits += data["bits"]

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class PassTracer:
    """Installs the spans of one traced pass and summarises them."""

    def __init__(self) -> None:
        self.rec = sp.Recorder()
        self.patcher = sp.Patcher()
        self.two_party: List[tuple] = []
        self._original_run = None

    # ------------------------------------------------------------------
    def install(self) -> None:
        import repro.solvers as solvers_pkg
        from repro.cc import alice_bob
        from repro.congest.model import CongestSimulator
        from repro.core import family as family_mod
        from repro.experiments import runner, warm_pool
        from repro.experiments.sweep_store import SweepStore
        from repro.solvers import batch_kernels

        rec = self.rec

        def function(module, attr, name, layer, on_result=None):
            self.patcher.function(module, attr, sp.wrap(
                rec, name, layer, getattr(module, attr), on_result))

        def method(cls, attr, name, layer, on_result=None):
            self.patcher.method(cls, attr, sp.wrap(
                rec, name, layer, vars(cls)[attr], on_result))

        # runner: one span per experiment row
        def row_attr(idx, args, kwargs, result):
            rec.annotate(idx, id=args[0] if args else kwargs["experiment_id"])
        function(runner, "run_experiment", "runner.row", "runner", row_attr)

        # cc: Theorem 1.1 two-party simulation; arguments kept for the
        # bare re-run and the independent cut-bit count after the pass
        signature = inspect.signature(alice_bob.simulate_two_party)

        def two_party_attr(idx, args, kwargs, result):
            rec.annotate(idx, cut_bits=result.cut_bits)
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            self.two_party.append((idx, call.arguments))
        function(alice_bob, "simulate_two_party", "cc.two_party", "cc",
                 two_party_attr)

        # congest: the round loop
        def run_attr(idx, args, kwargs, result):
            sim = args[0]
            rec.annotate(idx, msgs=sim.total_messages, rounds=sim.rounds)
        self._original_run = CongestSimulator.run
        method(CongestSimulator, "run", "congest.run", "congest", run_attr)

        # sweep, store, fan-out
        function(family_mod, "sweep", "sweep", "sweep")
        method(SweepStore, "store", "store.put", "store")
        method(SweepStore, "load_pairs", "store.load", "store")
        function(warm_pool, "pool_decisions", "fanout.wait", "fanout")

        # core builds and kernels, on the classes that define them
        mixin = family_mod.DeltaBuildMixin
        method(mixin, "build", "core.build", "core")

        def batch_attr(idx, args, kwargs, result):
            rec.annotate(idx, decided=len(result) if result else 0)
        method(mixin, "decide_batch", "kernels.batch", "kernels", batch_attr)
        for cls in sp.subclasses(mixin):
            own = vars(cls)
            if "build_skeleton" in own:
                method(cls, "build_skeleton", "core.skeleton", "core")
            if "build" in own:
                method(cls, "build", "core.build", "core")
            if "make_batch_kernel" in own:
                method(cls, "make_batch_kernel", "kernels.build", "kernels")
            pred = own.get("predicate")
            if pred is not None and not getattr(pred, "__isabstractmethod__", False):
                method(cls, "predicate", "solvers.predicate", "solvers")
        for name in dir(batch_kernels):
            cls = getattr(batch_kernels, name)
            if isinstance(cls, type) and "decide" in vars(cls):
                method(cls, "decide", "kernels.decide", "kernels")

        # solvers: every public exact solver
        for name in sp.public_functions(solvers_pkg):
            if name not in _NOT_SOLVERS:
                span = ("solvers.mis" if name == "independence_number"
                        else "solvers.call")
                function(solvers_pkg, name, span, "solvers")

    def uninstall(self) -> None:
        self.patcher.restore()

    # ------------------------------------------------------------------
    def _rerun_two_party(self) -> Tuple[float, int]:
        """After the timed pass: re-run every two-party simulation bare
        (no tracer, no cut counting) to split off the cut-accounting
        overhead, and once more with :class:`CutSink` to count cut bits
        independently of the program's own counters.  Solver time inside
        either run (the leader's local computation) is left out of both."""
        from repro.congest.model import CongestSimulator

        spans = self.rec.spans
        overhead = 0.0
        own_bits = 0
        for idx, call in self.two_party:
            def simulator():
                return CongestSimulator(call["graph"], bandwidth=call["bandwidth"],
                                        bandwidth_factor=call["bandwidth_factor"])

            def run(sim):
                self._original_run(sim, call["algorithm_factory"],
                                   inputs=call["inputs"], max_rounds=call["max_rounds"])

            first = len(spans)
            sim = simulator()
            t0 = time.perf_counter()
            run(sim)
            bare = time.perf_counter() - t0
            bare -= _outer_solver_time(spans, range(first, len(spans)))
            two_party = spans[idx][3] - spans[idx][2]
            two_party -= _outer_solver_time(spans, range(idx + 1, first), root=idx)
            overhead += two_party - bare

            sim = simulator()
            sim.tracer = sink = CutSink(sim.uid_of[v] for v in set(call["va"]))
            run(sim)
            own_bits += sink.bits
        return overhead, own_bits

    def summary(self, out: Dict[str, Any]) -> Tuple[Dict[str, float], int]:
        """Per-layer metrics of the pass ``out`` describes, and the cut
        bits the benchmark counted itself (to check ``cc.cut_bits``)."""
        spans = self.rec.spans
        t_first = out["t_end_perf"] - out["pass_s"]
        t_end = out["t_end_perf"]
        timed = [s for s in spans if t_first <= s[2] <= t_end]
        # re-index the timed spans so parent links stay valid
        index = {id(s): i for i, s in enumerate(timed)}
        window = [s[:4] + [index.get(id(spans[s[4]]), -1) if s[4] >= 0 else -1, s[5]]
                  for s in timed]
        layers: Dict[str, float] = {}
        layers["cli.import_s"] = out["import_s"]
        # skeletons are built in set-up for the sweep workloads and
        # inside the experiments for paper: count both
        layers["core.skeleton_ms"] = 1e3 * sp.total(spans, "core.skeleton")
        layers["core.build_us"] = 1e6 * sp.median(sp.durations(window, "core.build"))
        layers["core.builds"] = sp.count(window, "core.build")
        layers["solvers.predicate_ms"] = 1e3 * sp.median(
            sp.durations(window, "solvers.predicate"))
        layers["solvers.predicates"] = sp.count(window, "solvers.predicate")
        layers["solvers.mis_ms"] = 1e3 * sp.total(window, "solvers.mis")
        from repro.solvers.cache import cache_stats
        stats = cache_stats().values()
        layers["solvers.cache_hits"] = sum(s.hits for s in stats)
        layers["solvers.cache_misses"] = sum(s.misses for s in stats)
        layers["kernels.build_ms"] = 1e3 * sp.total(window, "kernels.build")
        layers["kernels.decide_us"] = 1e6 * sp.median(
            sp.durations(window, "kernels.decide"))
        layers["kernels.solved"] = sp.count(window, "kernels.decide")
        layers["kernels.inferred"] = sp.inferred_in_batches(window)
        layers["store.put_us"] = 1e6 * sp.median(sp.durations(window, "store.put"))
        layers["store.load_ms"] = 1e3 * sp.total(window, "store.load")
        layers["fanout.spinup_ms"] = 1e3 * out.get("spinup_s", 0.0)
        layers["fanout.wait_ms"] = 1e3 * sp.total(window, "fanout.wait")
        pool = out.get("pool") or {}
        shipped = pool.get("pairs_shipped", 0)
        layers["fanout.payload_bytes_per_pair"] = (
            pool.get("pair_payload_bytes", 0) / shipped if shipped else 0.0)
        layers["fanout.worker_peak_rss_mb"] = out.get("worker_peak_rss_mb", 0.0)
        run_ms = 1e3 * sp.total(window, "congest.run")
        msgs = sp.attr_sum(window, "congest.run", "msgs")
        layers["congest.run_ms"] = run_ms
        layers["congest.msgs"] = msgs
        layers["congest.msgs_per_s"] = msgs / (run_ms / 1e3) if run_ms else 0.0
        layers["congest.rounds"] = sp.attr_sum(window, "congest.run", "rounds")
        layers["cc.two_party_ms"] = 1e3 * sp.total(window, "cc.two_party")
        layers["cc.cut_bits"] = sp.attr_sum(window, "cc.two_party", "cut_bits")
        for s in window:
            if s[0] == "runner.row":
                layers[f"runner.row_ms.{s[5]['id']}"] = 1e3 * (s[3] - s[2])
        selfs = sp.self_times(window)
        for layer in ("core", "solvers", "kernels", "sweep", "store",
                      "congest", "cc", "runner"):
            layers[f"{layer}.self_ms"] = 1e3 * selfs.get(layer, 0.0)
        layers["trace.unaccounted_ms"] = 1e3 * (out["pass_s"]
                                                - sp.top_level_time(window))
        overhead_s, own_cut_bits = self._rerun_two_party()
        layers["cc.cut_overhead_ms"] = 1e3 * overhead_s
        return layers, own_cut_bits


def _outer_solver_time(spans: List[list], indices, root: int = -1) -> float:
    """Seconds of the solver spans among ``indices`` that are not nested
    in another solver span and lie inside span ``root`` (``-1``: any)."""
    total = 0.0
    for i in indices:
        span = spans[i]
        if span[1] != "solvers":
            continue
        parent = span[4]
        while parent >= 0 and parent != root and spans[parent][1] != "solvers":
            parent = spans[parent][4]
        if parent == root:
            total += span[3] - span[2]
    return total
