"""One pass of one workload, in a fresh interpreter.

Started by ``run.py`` as ``python3 perfbench/onepass.py SPEC OUT``.
SPEC is a JSON file naming the workload, seed, fan-out width, whether
to trace, and the persistent directory (empty for a cold pass, filled
for a resume pass).  The pass writes its timings, the program's outputs
and (when traced) its per-layer summary to OUT; every correctness check
runs in the parent.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from typing import Any, Dict, List, Optional

#: address-space cap: far above what any pass needs (~0.5 GiB virtual),
#: far below the 512 GiB the max-cut k=4 batch kernel requests, so that
#: request fails at once on every host whatever its overcommit policy.
ADDRESS_SPACE_CAP = 8 << 30

import workloads
from spans import Patcher


def make_family(name: str, k: int):
    """The family ``repro verify NAME -k K`` builds, from public classes."""
    import repro
    from repro.core.steiner_approx import DirectedSteinerFamily
    from repro.covering import build_covering_collection

    def collection():
        return build_covering_collection(universe_size=16, T=6, r=2, seed=0)

    simple = {
        "mds": repro.MdsFamily,
        "hamiltonian-path": repro.HamiltonianPathFamily,
        "hamiltonian-cycle": repro.HamiltonianCycleFamily,
        "steiner": repro.SteinerTreeFamily,
        "maxcut": repro.MaxCutFamily,
        "mvc": repro.MvcMaxISFamily,
        "approx-maxis": repro.WeightedApproxMaxISFamily,
        "approx-maxis-linear": repro.LinearApproxMaxISFamily,
    }
    if name in simple:
        return simple[name](k)
    if name == "kmds":
        return repro.KMdsFamily(collection(), k=2)
    if name == "directed-steiner":
        return DirectedSteinerFamily(collection())
    raise ValueError(f"unknown family {name!r}")


def _error_kind(exc: BaseException) -> str:
    # numpy raises a private MemoryError subclass; name the public one
    return "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__


def _vm_hwm_mb(pid: int) -> float:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class Taps:
    """Captures the program's outputs that the parent re-checks: E-F4's
    bounded-degree instances and the Claim 3.6 two-party DISJ answers."""

    def __init__(self) -> None:
        self.instances: Dict[tuple, Any] = {}
        self.last: Optional[tuple] = None
        self.two_party: List[list] = []
        self.patcher = Patcher()

    def install(self) -> None:
        from repro.core import bounded_degree
        from repro.limits import protocols

        build = bounded_degree.BoundedDegreeMaxIS.build

        def tapped_build(self_, x, y):
            inst = build(self_, x, y)
            self.last = (tuple(x), tuple(y))
            self.instances.setdefault(self.last, inst)
            return inst

        self.patcher.method(bounded_degree.BoundedDegreeMaxIS, "build", tapped_build)
        solve = protocols.solve_disjointness_via_bounded_degree_maxis

        def tapped_solve(construction, x, y):
            out = solve(construction, x, y)
            self.two_party.append([list(x), list(y), bool(out[0])])
            return out

        self.patcher.function(protocols, "solve_disjointness_via_bounded_degree_maxis",
                              tapped_solve)

    def dump(self) -> Dict[str, Any]:
        # E-F4 reports n' of the instance it built last
        instances = []
        for (x, y), inst in sorted(self.instances.items(),
                                   key=lambda item: item[0] == self.last):
            g = inst.graph
            instances.append({
                "x": list(x), "y": list(y),
                "vertices": sorted(repr(v) for v in g.vertices()),
                "edges": sorted(sorted((repr(u), repr(v))) for u, v in g.edges()),
            })
        return {"instances": instances, "two_party": self.two_party}


def run_sweeps(families, jobs: int, store) -> List[Dict[str, Any]]:
    """Sweep each ``(name, family, pairs)`` through ``repro``'s
    ``sweep()``; a family whose sweep raises is reported with its error
    (its pairs count as failed operations)."""
    from repro.core.family import sweep

    results = []
    for name, fam, pairs in families:
        try:
            rep = sweep(fam, pairs, jobs=jobs, store=store)
        except Exception as exc:
            results.append({"family": name, "error": _error_kind(exc),
                            "message": str(exc)[:200]})
            continue
        results.append({"family": name,
                        "decisions": [int(d) for d in rep.decisions],
                        "unique": rep.unique_pairs, "solved": rep.solved,
                        "store_hits": rep.store_hits})
    return results


def sweep_pass(spec: Dict[str, Any], inputs, tracer) -> Dict[str, Any]:
    from repro.experiments import warm_pool
    from repro.experiments.sweep_store import SweepStore
    from repro.obs import warm_pool_stats

    jobs = spec["jobs"]
    out: Dict[str, Any] = {}
    pids: List[int] = []
    if jobs > 1:
        # fork the lanes before any wrapper is installed: spans are
        # recorded in this process only
        t0 = time.perf_counter()
        pool = warm_pool.get_pool(jobs)
        pids = [lane.executor.submit(os.getpid).result() for lane in pool.lanes]
        out["spinup_s"] = time.perf_counter() - t0
    if tracer is not None:
        tracer.install()
    store = SweepStore(spec["persist_dir"])
    families = [(name, make_family(name, k), pairs) for name, k, pairs in inputs]
    for __, fam, __ in families:
        fam.skeleton()

    out["t_first"] = time.monotonic()
    t0 = time.perf_counter()
    out["results"] = run_sweeps(families, jobs, store)
    out["t_end_perf"] = time.perf_counter()
    out["pass_s"] = out["t_end_perf"] - t0
    if jobs > 1:
        stats = warm_pool_stats()
        out["pool"] = {k: v for k, v in stats.items() if isinstance(v, int)}
        out["worker_peak_rss_mb"] = max(_vm_hwm_mb(pid) for pid in pids)
        warm_pool.shutdown_pool()
    return out


def paper_pass(spec: Dict[str, Any], ids: List[str], tracer) -> Dict[str, Any]:
    from repro.solvers.cache import configure as configure_cache

    configure_cache(enabled=True, cache_dir=spec["persist_dir"])
    taps = Taps()
    taps.install()
    if tracer is not None:
        tracer.install()
    from repro.experiments import format_markdown, run_all

    out: Dict[str, Any] = {"t_first": time.monotonic()}
    t0 = time.perf_counter()
    records = run_all(quick=True, only=ids, jobs=1)
    out["t_end_perf"] = time.perf_counter()
    out["pass_s"] = out["t_end_perf"] - t0
    out["table"] = format_markdown(sorted(records, key=lambda r: r.experiment_id))
    out["e_f4"] = taps.dump()
    return out


def die_with_parent(parent: int) -> None:
    """Have the kernel kill this pass, and every process it forks, when
    the process that started it dies."""
    import ctypes
    import signal

    libc = ctypes.CDLL(None, use_errno=True)

    def arm() -> None:
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)  # PR_SET_PDEATHSIG

    arm()
    os.register_at_fork(after_in_child=arm)
    if os.getppid() != parent:
        sys.exit("perfbench: the run that started this pass has ended")


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    die_with_parent(spec["parent"])
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))
    t0 = time.monotonic()
    if spec["workload"] == "paper":
        # the experiments seed themselves; rows run in the CLI's order
        inputs: Any = list(workloads.PAPER_IDS)
    else:
        inputs = workloads.family_inputs(spec["workload"], spec["seed"])
    gen_s = time.monotonic() - t0

    t0 = time.perf_counter()
    import repro.cli  # noqa: F401  (what `python -m repro` pays first)
    import repro.experiments  # noqa: F401
    import repro.experiments.sweep_store  # noqa: F401
    import_s = time.perf_counter() - t0

    tracer = None
    if spec["traced"]:
        import tracing
        tracer = tracing.PassTracer()
    if spec["workload"] == "paper":
        out = paper_pass(spec, inputs, tracer)
    else:
        out = sweep_pass(spec, inputs, tracer)
    out["gen_s"] = gen_s
    out["import_s"] = import_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        out["layers"], out["own_cut_bits"] = tracer.summary(out)

    import multiprocessing
    for child in multiprocessing.active_children():
        child.join(30)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
