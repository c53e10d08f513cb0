"""Correctness checks, run in the parent process on what each pass
reported.  Expected answers are computed here (DISJ from the bit
tuples, graph measures with networkx), never through ``repro``.

Every check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Sequence, Tuple

import workloads

Pair = Tuple[Tuple[int, ...], Tuple[int, ...]]


def sweep_results(inputs: Sequence[Tuple[str, int, List[Pair]]],
                  results: List[Dict[str, Any]], workload: str,
                  mode: str) -> Tuple[int, int, List[str]]:
    """Every decided pair must equal NOT DISJ(x, y); a resume pass must
    be served wholly from the store.  Returns (attempted, failed,
    problems); only the named families may fail, and only with the
    named error."""
    problems: List[str] = []
    expected_fail = workloads.expected_failures(workload)
    attempted = failed = 0
    if [r["family"] for r in results] != [name for name, __, __ in inputs]:
        return 0, 0, [f"{mode}: families reported out of order"]
    for (name, __, pairs), res in zip(inputs, results):
        attempted += len(pairs)
        if "error" in res:
            failed += len(pairs)
            if expected_fail.get(name) != res["error"]:
                problems.append(f"{mode}: {name} failed with {res['error']}: "
                                f"{res.get('message', '')}")
            continue
        decisions = res["decisions"]
        if len(decisions) != len(pairs):
            problems.append(f"{mode}: {name} returned {len(decisions)} "
                            f"decisions for {len(pairs)} pairs")
            continue
        wrong = [(x, y) for (x, y), d in zip(pairs, decisions)
                 if bool(d) != (not workloads.disjoint(x, y))]
        if wrong:
            x, y = wrong[0]
            problems.append(f"{mode}: {name} decided {len(wrong)} pair(s) "
                            f"against NOT DISJ, e.g. x={x} y={y}")
        if mode == "resume" and (res["solved"] or res["store_hits"] != res["unique"]):
            problems.append(f"{mode}: {name} re-solved {res['solved']} pair(s); "
                            f"{res['store_hits']}/{res['unique']} came from the store")
    return attempted, failed, problems


def same_decisions(cold: List[Dict[str, Any]],
                   resume: List[Dict[str, Any]]) -> List[str]:
    """The resume pass must return the cold pass's decisions."""
    problems = []
    for a, b in zip(cold, resume):
        if a.get("decisions") != b.get("decisions"):
            problems.append(f"resume: {a['family']} decisions differ "
                            f"from the cold pass")
    return problems


_ROW = re.compile(r"^\| (?P<id>E-[^ ]+) \|.*\| (?P<status>PASS|FAIL) \|$")


def paper_table(table: str, reference: str) -> List[str]:
    """All 22 rows PASS, and the table equals the reference table
    (``python -m repro experiments`` output at the benchmark's birth)."""
    problems = []
    rows = {}
    for line in table.splitlines():
        m = _ROW.match(line)
        if m:
            rows[m.group("id")] = m.group("status")
    missing = sorted(set(workloads.PAPER_IDS) - set(rows))
    if missing:
        problems.append(f"paper: rows missing: {missing}")
    failing = sorted(eid for eid, status in rows.items() if status != "PASS")
    if failing:
        problems.append(f"paper: rows not PASS: {failing}")
    if table.strip() != reference.strip():
        ref = reference.strip().splitlines()
        got = table.strip().splitlines()
        diff = [g for g, r in zip(got, ref) if g != r] + got[len(ref):]
        first = diff[0][:120] if diff else "(rows missing)"
        problems.append(f"paper: table differs from the reference table, "
                        f"first differing row: {first}")
    return problems


def measured_value(table: str, eid: str, key: str,
                   column: str = "measured") -> Optional[str]:
    """One ``key=value`` cell entry of a table row."""
    for line in table.splitlines():
        if line.startswith(f"| {eid} |"):
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line)[1:-1]]
            cell = cells[3] if column == "measured" else cells[2]
            sep = "; " if column == "measured" else ", "
            for part in cell.split(sep):
                k, __, v = part.partition("=")
                if k == key:
                    return v
    return None


def e_f4_instances(dump: Dict[str, Any], table: str) -> List[str]:
    """Rebuild E-F4's instances in networkx from their edge lists and
    recompute n' (of the instance built last, listed last), the maximum
    degree (<= 5) and the diameter (maxima over all instances)."""
    import networkx as nx

    problems = []
    eid = "E-F4-T3.1-bounded-degree-maxis"
    instances = dump.get("instances", [])
    if not instances:
        return [f"paper: no {eid} instances were captured"]
    n_prime = measured_value(table, eid, "n_prime", column="parameters")
    max_degree = measured_value(table, eid, "max_degree")
    diameter = measured_value(table, eid, "diameter")
    degrees, diameters = [], []
    for inst in instances:
        g = nx.Graph()
        g.add_nodes_from(inst["vertices"])
        g.add_edges_from(tuple(e) for e in inst["edges"])
        degrees.append(max(d for __, d in g.degree()))
        diameters.append(nx.diameter(g))
    if str(g.number_of_nodes()) != n_prime:
        problems.append(f"paper: {eid} n'={g.number_of_nodes()} by networkx, "
                        f"table says {n_prime}")
    if max(degrees) > 5 or str(max(degrees)) != max_degree:
        problems.append(f"paper: {eid} max degree {max(degrees)} by networkx, "
                        f"table says {max_degree} (must be <= 5)")
    if str(max(diameters)) != diameter:
        problems.append(f"paper: {eid} diameter {max(diameters)} by networkx, "
                        f"table says {diameter}")
    return problems


def two_party_answers(dump: Dict[str, Any]) -> List[str]:
    """Claim 3.6's two-party protocol must answer DISJ(x, y)."""
    answers = dump.get("two_party", [])
    if not answers:
        return ["paper: no two-party DISJ answers were captured"]
    wrong = [(x, y, a) for x, y, a in answers if a != workloads.disjoint(x, y)]
    return [f"paper: two-party answer {a} for x={x} y={y} is not DISJ"
            for x, y, a in wrong]


def cut_bits(reported: int, own: int) -> List[str]:
    """The program's cut-bit total must equal the benchmark's own sum of
    message bits over cut edges, counted from the event stream."""
    if reported != own:
        return [f"cc: program reports {reported} cut bits, the trace holds {own}"]
    return []
