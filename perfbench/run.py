"""The repository's benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload {paper,grid-k2,sampled-k4}
                             --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  A run repeats whole *rounds* until
another round would overrun ``--seconds``.  Every pass of a round runs
in a fresh interpreter (``onepass.py``) with its own empty persistent
directories under ``.perfbench-work/`` in the checkout:

- ``--trace 0``: a cold pass, then a resume pass against the directory
  the cold pass filled.  The end-to-end metrics are medians over the
  rounds.
- ``--trace 1``: an untraced cold pass, then a traced cold pass and a
  traced resume pass.  The per-layer metrics are medians over the
  rounds; the tracing overhead compares the two cold passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

#: a pass still running this many seconds after the run started is
#: killed, so that a hung program cannot hold a run past 180 s
PASS_DEADLINE_S = 150.0


def _benchmark_json() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def become_subreaper() -> None:
    """Adopt orphaned descendants (e.g. multiprocessing's resource
    tracker) so that every process a pass starts is waited for here."""
    try:
        import ctypes
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def reap_descendants(group: int, timeout: float = 10.0) -> None:
    """Wait for every adopted descendant to end; after ``timeout``
    seconds kill what is left of the pass's process group."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, __ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                try:
                    os.killpg(group, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            time.sleep(0.01)


def disk_usage(path: str) -> Tuple[float, int]:
    """(KB allocated, entry files) under ``path``."""
    blocks = 0
    entries = 0
    for dirpath, __, files in os.walk(path):
        blocks += os.lstat(dirpath).st_blocks
        for name in files:
            blocks += os.lstat(os.path.join(dirpath, name)).st_blocks
            if name.endswith(".json") and name != "meta.json":
                entries += 1
    return blocks * 512 / 1024.0, entries


class PassRunner:
    def __init__(self, workload: str, seed: int, work: str, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.join(ROOT, "src")
        self.env["PYTHONHASHSEED"] = "0"
        # the program's default cache paths resolve inside the work dir,
        # so no pass can touch the user's ~/.cache/repro
        self.env["XDG_CACHE_HOME"] = os.path.join(work, "xdg-cache")

    def run(self, mode: str, traced: bool, persist_dir: str) -> Dict[str, Any]:
        self.count += 1
        spec_path = os.path.join(self.work, f"pass{self.count}.spec.json")
        out_path = os.path.join(self.work, f"pass{self.count}.out.json")
        err_path = os.path.join(self.work, f"pass{self.count}.stderr")
        spec = {"workload": self.workload, "seed": self.seed, "traced": traced,
                "persist_dir": persist_dir, "parent": os.getpid(),
                "jobs": workloads.SAMPLED_JOBS if self.workload == "sampled-k4" else 1}
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        timeout = max(5.0, self.deadline - time.monotonic())
        with open(err_path, "wb") as err:
            t_spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "onepass.py"), spec_path, out_path],
                cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True)
            try:
                code = proc.wait(timeout=timeout)
            except BaseException as exc:  # hung pass, or this run stopped
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                if isinstance(exc, subprocess.TimeoutExpired):
                    raise RuntimeError(f"{mode} pass exceeded {timeout:.0f}s")
                raise
            finally:
                reap_descendants(proc.pid)
        if code != 0:
            with open(err_path, encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            raise RuntimeError(f"{mode} pass exited with {code}:\n{tail}")
        with open(out_path, encoding="utf-8") as fh:
            out = json.load(fh)
        out["setup_s"] = out["t_first"] - t_spawn - out["gen_s"]
        out["peak_total_mb"] = out["peak_rss_mb"] + out.get("worker_peak_rss_mb", 0.0)
        for path in (spec_path, out_path, err_path):
            os.unlink(path)
        return out


class Run:
    """One benchmark run: rounds of passes plus their checks."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool,
                 work: str) -> None:
        self.workload = workload
        self.traced = traced
        start = time.monotonic()
        self.budget_end = start + seconds
        self.passes = PassRunner(workload, seed, work, start + PASS_DEADLINE_S)
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.samples: Dict[str, List[float]] = {}
        if workload == "paper":
            self.inputs = None
            with open(os.path.join(HERE, "reference_table.md"), encoding="utf-8") as fh:
                self.reference = fh.read()
            self.checked_instances: Optional[str] = None
        else:
            self.inputs = workloads.family_inputs(workload, seed)

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # -- checks --------------------------------------------------------
    def check_pass(self, out: Dict[str, Any], mode: str) -> None:
        if self.workload == "paper":
            # an experiment that raises ends the pass, so every row is
            # attempted and none fails; a FAIL row is a wrong answer
            self.attempted += len(workloads.PAPER_IDS)
            self.problems += checks.paper_table(out["table"], self.reference)
            self.problems += checks.two_party_answers(out["e_f4"])
            dump = json.dumps(out["e_f4"]["instances"], sort_keys=True)
            if dump != self.checked_instances:
                self.problems += checks.e_f4_instances(out["e_f4"], out["table"])
                self.checked_instances = dump
        else:
            attempted, failed, problems = checks.sweep_results(
                self.inputs, out["results"], self.workload, mode)
            self.attempted += attempted
            self.failed += failed
            self.problems += problems

    # -- rounds --------------------------------------------------------
    def round(self, index: int) -> None:
        rdir = os.path.join(self.work, f"round{index}")
        if self.traced:
            plain = self.passes.run("cold", False, os.path.join(rdir, "plain"))
            self.check_pass(plain, "cold")
        persist = os.path.join(rdir, "persist")
        cold = self.passes.run("cold", self.traced, persist)
        self.check_pass(cold, "cold")
        persist_kb, entries = disk_usage(persist)
        resume = self.passes.run("resume", self.traced, persist)
        self.check_pass(resume, "resume")
        if self.inputs is not None:
            self.problems += checks.same_decisions(cold["results"], resume["results"])
        shutil.rmtree(rdir, ignore_errors=True)

        if not self.traced:
            self.add("setup_s", cold["setup_s"])
            self.add("setup_s", resume["setup_s"])
            self.add("pass_s", cold["pass_s"])
            self.add("resume_s", resume["pass_s"])
            self.add("peak_rss_mb", cold["peak_total_mb"])
            self.add("persist_kb", persist_kb)
            return
        layers = dict(cold["layers"])
        for key in ("store.load_ms", "solvers.cache_hits", "solvers.cache_misses"):
            layers[key] = resume["layers"][key]
        layers["store.entries"] = entries
        self.problems += checks.cut_bits(layers["cc.cut_bits"], cold["own_cut_bits"])
        layers["trace.overhead_pct"] = (100.0 * (cold["pass_s"] - plain["pass_s"])
                                        / plain["pass_s"])
        for key, value in layers.items():
            self.add(key, value)

    def execute(self) -> None:
        index = 0
        while True:
            t0 = time.monotonic()
            self.round(index)
            index += 1
            took = time.monotonic() - t0
            if time.monotonic() + took > self.budget_end:
                break
        self.rounds = index

    def metrics(self, names: List[Dict[str, str]]) -> Dict[str, Dict[str, Any]]:
        out = {}
        for entry in names:
            values = self.samples.get(entry["name"], [0.0])
            out[entry["name"]] = {"value": statistics.median(values),
                                  "unit": entry["unit"]}
        return out


def fingerprint() -> Dict[str, Any]:
    """Where and what was measured: host and tree."""
    from importlib import metadata

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    versions = {}
    for dist in ("numpy", "networkx"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    sha = dirty = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                             capture_output=True, text=True).stdout.strip()
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                check=True, capture_output=True, text=True).stdout
        dirty = bool(status.strip())
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            **versions, "git_sha": sha, "dirty": dirty,
            "src_sha256": digest.hexdigest()}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no program under {os.path.join(ROOT, 'src')}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    bench = _benchmark_json()
    become_subreaper()
    # a stopped run still kills its pass and removes its work directory
    signal.signal(signal.SIGTERM, lambda *__: sys.exit(128 + signal.SIGTERM))
    work = os.path.join(ROOT, ".perfbench-work", f"{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), work)
        run.execute()
    except RuntimeError as exc:  # a pass crashed or hung: no result
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass

    names = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = run.metrics(names)
    print(f"host: {json.dumps(fingerprint(), sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {run.rounds} round(s), "
          f"{run.attempted} operations attempted, {run.failed} failed")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    for problem in dict.fromkeys(run.problems):  # once each, in order
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
