"""Interleaved parent/change pairs of the lrav benchmark, summarised as BENCH_<n>.json.

    python3 tools/bench_pairs.py --base HEAD~1 --pairs mem-64k=10 --pairs tcp-4m=4 \\
        --seed 2201 --out BENCH_22.json --claim mem-64k:setup_s

Both sides are committed revisions: ``git archive`` of BASE (the parent) and
of HEAD (the change), each extracted into ``.bench_build/`` (git ignores it),
so uncommitted edits in the working tree are never measured. Each tree
imports lrav once before any timing, so both have built their accelerator.

Every pair runs ``perfbench/run.py --trace 0`` once on each side with the
same workload and seed; the side that runs first alternates from pair to
pair within each workload, and the workloads take turns, so host drift
reaches both sides alike. One traced pair per workload (``--trace 1``)
follows, for the per-layer figures. Run length is BENCHMARK.json's
``run_seconds``.

Each end-to-end metric is summarised per workload with its quartiles on both
sides, the pairs the change wins, the parent's IQR, the gap between the
medians and a verdict, against the metric's ``bound`` and ``better`` in
BENCHMARK.json. A gain counts only if the change fails no more operations
than the parent over the same pairs. Exits 1 if any run exits non-zero or
reports incorrect outputs; the file is written either way, with every run
made.

Standard library only. It reads perfbench/ and BENCHMARK.json and changes
neither.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 300  # perfbench ends its own runs at 170 s
SIDES = ("parent", "change")


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def commit_of(rev: str) -> str:
    return git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()


def extract(commit: str) -> Path:
    """A fresh copy of `commit`'s files under .bench_build/."""
    tree = BUILD / commit[:12]
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit)), mode="r:") as tar:
        tar.extractall(tree, filter="data")
    return tree


def build_accelerator(tree: Path) -> None:
    code = "import sys; sys.path.insert(0, 'src'); import lrav.crtm"
    subprocess.run([sys.executable, "-c", code], cwd=tree, check=True, timeout=RUN_TIMEOUT_S)


def run(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run: exit code, its meta, detail and result lines, stderr's tail."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": None, "stderr": f"no result within {RUN_TIMEOUT_S} s"}
    out = {"exit": proc.returncode}
    lines = proc.stdout.splitlines()
    for line in lines:
        for tag in ("meta", "detail"):
            if line.startswith(tag + " "):
                out[tag] = json.loads(line[len(tag) + 1:])
    if lines and lines[-1].startswith("{"):
        out["result"] = json.loads(lines[-1])
    if proc.returncode != 0:
        out["stderr"] = proc.stderr.strip().splitlines()[-5:]
    print(f"  {workload} seed {seed} trace {trace} {tree.name}: exit {proc.returncode}",
          file=sys.stderr, flush=True)
    return out


def ok(r: dict) -> bool:
    return r["exit"] == 0 and r.get("result", {}).get("correct") is True


def sig(x: float) -> float:
    return float(f"{x:.6g}")


def values(r: dict) -> dict:
    return {k: sig(v["value"]) for k, v in r.get("result", {}).get("metrics", {}).items()}


def run_pair(trees: dict, workload: str, seed: int, seconds: float, trace: int, first: str):
    order = SIDES if first == "parent" else SIDES[::-1]
    return {side: run(trees[side], workload, seed, seconds, trace) for side in order}


def pair_record(workload: str, seed: int, first: str, runs: dict) -> dict:
    def each(get):
        return {side: get(runs[side]) for side in SIDES}

    return {
        "seed": seed,
        "first": first,
        "loadavg_1m_at_start": each(lambda r: r.get("meta", {}).get("loadavg_1m_at_start")),
        "accelerator": each(lambda r: r.get("meta", {}).get("accelerator")),
        "exit": each(lambda r: r["exit"]),
        "attempted": each(lambda r: r.get("result", {}).get("attempted")),
        "failed": each(lambda r: r.get("result", {}).get("failed")),
        "correct": each(lambda r: r.get("result", {}).get("correct")),
        **each(values),
        "detail": each(lambda r: r.get("detail", {})),
        **({"stderr": each(lambda r: r.get("stderr"))} if not all(map(ok, runs.values())) else {}),
    }


def quartiles(xs: list[float]) -> dict:
    if len(xs) == 1:
        return {"q1": xs[0], "median": xs[0], "q3": xs[0]}
    q1, median, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": sig(q1), "median": sig(median), "q3": sig(q3)}


def summarise(pairs: list[dict], metric: dict) -> dict | None:
    """One metric over the pairs in which both sides reported it."""
    name, bound = metric["name"], metric["bound"]
    sign = 1 if metric["better"] == "lower" else -1  # sign * (change - parent) < 0: better
    used = [p for p in pairs if name in p["parent"] and name in p["change"]]
    if not used:
        return None
    both = [(p["parent"][name], p["change"][name]) for p in used]
    failed = {side: sum(p["failed"][side] for p in used) for side in SIDES}
    parent, change = ([b[i] for b in both] for i in (0, 1))
    qp, qc = quartiles(parent), quartiles(change)
    wins = sum(1 for p, c in both if sign * (c - p) < 0)
    iqr = qp["q3"] - qp["q1"]
    delta = qc["median"] - qp["median"]
    worse_frac = sign * delta / qp["median"]
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    if all_better:
        verdict = "better"
    elif worse_frac > bound:
        verdict = "worse"
    elif iqr / qp["median"] > bound:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": qp,
        "change": qc,
        "change_wins": f"{wins}/{len(both)}",
        "median_change_frac": sig(delta / qp["median"]),
        "parent_iqr": sig(iqr),
        "median_gap": sig(abs(delta)),
        "every_change_run_better_than_every_parent_run": all_better,
        "bound": bound,
        "parent_iqr_frac": sig(iqr / qp["median"]),
        "worse_by_more_than_parent_iqr": sign * delta > iqr,
        "failed": failed,
        "change_fails_no_more": failed["change"] <= failed["parent"],
        # the rule a claimed gain must meet: 9 of 10 pairs, more than the parent's IQR,
        # and no more failed operations than the parent
        "gain_rule_met": (10 * wins >= 9 * len(both) and -sign * delta > iqr
                          and failed["change"] <= failed["parent"]),
        "verdict": verdict,
    }


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def parse_pairs(value: str) -> tuple[str, int]:
    workload, _, n = value.partition("=")
    if not n.isdigit() or int(n) < 1:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=N with N >= 1, got {value!r}")
    return workload, int(n)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision of the parent side")
    parser.add_argument("--pairs", type=parse_pairs, action="append", required=True,
                        metavar="WORKLOAD=N", help="pairs to run on a workload (repeat per workload)")
    parser.add_argument("--seed", type=int, required=True,
                        help="first seed; each pair, traced ones included, takes the next")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    parser.add_argument("--title", default="", help="what the change does")
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC",
                        help="the gain the change claims, checked by the gain rule")
    parser.add_argument("--note", action="append", default=[], help="a line for 'notes'")
    args = parser.parse_args(argv)
    if not hasattr(tarfile, "data_filter"):  # extract() passes filter="data"
        print("error: bench_pairs.py needs tarfile's 'data' extraction filter, which Python "
              f"3.10.12, 3.11.4 and 3.12 added; this is Python {platform.python_version()}",
              file=sys.stderr)
        return 2

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    known = {w["name"] for w in bench["workloads"]}
    plan = dict(args.pairs)
    if unknown := sorted(set(plan) - known):
        parser.error(f"unknown workloads {unknown}; BENCHMARK.json has {sorted(known)}")
    claim = None
    if args.claim:
        claim = tuple(args.claim.split(":", 1))
        if claim[0] not in plan or claim[1] not in {m["name"] for m in metrics}:
            parser.error(f"--claim must name a run workload and an end-to-end metric: {args.claim}")
    seconds = bench["run_seconds"]

    commits = {"parent": commit_of(args.base), "change": commit_of("HEAD")}
    trees = {side: extract(commit) for side, commit in commits.items()}
    for tree in trees.values():
        build_accelerator(tree)

    seed = args.seed
    results = {w: {"seeds": [], "pairs": []} for w in plan}
    all_ok = True
    for i in range(max(plan.values())):
        for workload, n in plan.items():
            if i >= n:
                continue
            first = SIDES[i % 2]
            runs = run_pair(trees, workload, seed, seconds, 0, first)
            all_ok &= all(map(ok, runs.values()))
            results[workload]["seeds"].append(seed)
            results[workload]["pairs"].append(pair_record(workload, seed, first, runs))
            seed += 1
    traced = []
    for j, workload in enumerate(plan):
        first = SIDES[j % 2]
        runs = run_pair(trees, workload, seed, seconds, 1, first)
        all_ok &= all(map(ok, runs.values()))
        traced.append({"workload": workload, "seed": seed, "first": first,
                       "exit": {s: runs[s]["exit"] for s in SIDES},
                       **{s: values(runs[s]) for s in SIDES}})
        seed += 1

    for workload, entry in results.items():
        entry["summary"] = {m["name"]: s for m in metrics
                            if (s := summarise(entry["pairs"], m)) is not None}
    doc = {
        "title": args.title,
        "command": f"python3 perfbench/run.py --workload {{{'|'.join(plan)}}} --seed N "
                   f"--seconds {seconds:g} --trace 0",
        "produced_by": shlex.join(["python3", "tools/bench_pairs.py", *argv]),
        "parent": f"{commits['parent']} (git archive of {args.base})",
        "change": f"{commits['change']} (git archive of HEAD)",
        "procedure": (
            "Each pair runs the same workload and seed on both trees, one after the other; "
            "the side that runs first alternates from pair to pair within each workload, and "
            "the workloads take turns. Then one traced pair (--trace 1) per workload. Each "
            f"run is a fresh process with a {seconds:g} s window. Both trees imported lrav "
            "once before any timing. Quartiles are inclusive-method quartiles. 'change_wins' "
            "counts pairs in which the change is better (ties count for neither). 'verdict' is "
            "'better' when every change run is better than every parent run, 'worse' when the "
            "change's median is worse than the parent's by more than the BENCHMARK.json bound, "
            "'unresolved' when the parent's own IQR is wider than the bound (as a fraction of "
            "its median), and 'within bound' otherwise. 'gain_rule_met' is true when the "
            "change wins at least 9 of 10 pairs, its median is better by more than the "
            "parent's IQR, and its runs failed no more operations in total than the "
            "parent's ('change_fails_no_more', over the pairs in 'failed')."
        ),
        "host": {
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
            "python": platform.python_version(),
        },
        "workloads": results,
        "traced": traced,
        "notes": args.note,
    }
    if claim is not None:
        s = results[claim[0]]["summary"].get(claim[1], {})
        doc["claim"] = {"workload": claim[0], "metric": claim[1], **s,
                        "met": bool(s.get("gain_rule_met"))}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}{'' if all_ok else '; some runs failed or were incorrect'}",
          file=sys.stderr)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
