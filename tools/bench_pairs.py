"""Run perfbench/run.py in alternating parent/change pairs and write BENCH_<n>.json.

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD \\
        --pairs sample_bulk=51-55 --pairs sample_deep=51-58 --traced sample_bulk=51 \\
        --what "what the change is" --out BENCH_13.json

Each side runs from its own `git archive` copy of its commit, so neither
reads the working tree.  Pair i of a workload runs seed i of its list on both
sides, the parent first when i is odd and the change first when i is even,
so that a drift of the host's speed falls on both sides alike.  --traced adds
pairs of `--trace 1` runs, kept apart from the end-to-end runs.  Given an
existing output file of the same two commits, the tool adds its new pairs to
the runs already there.

Every run takes run.py's own run length.  After each end-to-end pair, the
tool times SETUP_SAMPLES more set-ups of each side, each in a fresh
interpreter (`run.py --setup-only`), alternating between the sides in the
pair's order: a run's own setup_s is the median of a dozen samples taken
over its run, too few to resolve the 25% bound on a shared host, and
interleaved samples put both sides on the same stretch of it.

The output keeps every run's env line, final JSON line (its `attempted`
count included), gate line, figures and interleaved set-up samples, and a
summary per workload: median and quartiles of each end-to-end metric on
each side, in how many pairs the change did better, how much of the
metric's bound from BENCHMARK.json the change of the median uses and
whether it stays within it, and whether the pairs meet the rule for
claiming a gain; the same quartiles of the interleaved set-ups; and the RSS
that each 1000 ops add, with the change of the RSS net of them.  The traced
runs get their own summary: each run's exit code, and whether all of them
passed.  The machine block and the run length in the command text come
from the env lines, so they say what run.py used.

The tool exits 1, after writing the file, when any run, traced or not,
exited non-zero, that is when a gate failed.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = "python3 perfbench/run.py --workload <w> --seed <s> --trace <0|1> (runs of {seconds} s)"
# the env line fields that describe the host rather than the run
MACHINE_FIELDS = ("nproc", "blas_threads", "python", "numpy", "scipy")
# fresh-interpreter set-ups of each side after each end-to-end pair
SETUP_SAMPLES = 3
# a gain is claimed from at least this many pairs, of which the change wins
# at least nine tenths
CLAIM_PAIRS = 10


def seed_list(text: str) -> list[int]:
    """'51-55' -> [51, ..., 55]; '1,4,9' -> [1, 4, 9]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def workload_seeds(text: str) -> tuple[str, list[int]]:
    name, _, seeds = text.partition("=")
    if not seeds:
        raise argparse.ArgumentTypeError(f"expected WORKLOAD=SEEDS, got {text!r}")
    return name, seed_list(seeds)


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def worse_by(parent: float, change: float, better: str) -> float | None:
    """How much worse `change` is than `parent`, as a fraction of |parent|:
    positive when worse, negative when better; None when parent is 0 and
    change is not, since no fraction of 0 measures that."""
    worse = change - parent if better == "lower" else parent - change
    if parent == 0:
        return None if worse else 0.0
    return worse / abs(parent)


def claim_met(pairs: int, wins: int, parent: dict, change: dict, better: str) -> bool:
    """The rule for claiming a gain on one metric: at least CLAIM_PAIRS
    pairs, the change better in at least nine tenths of them, and its median
    better than the parent's by more than the parent's own quartile spread,
    q3 - q1.  parent and change are the quartiles of each side's values."""
    gain = parent["median"] - change["median"]
    if better == "higher":
        gain = -gain
    return (pairs >= CLAIM_PAIRS and 10 * wins >= 9 * pairs
            and gain > parent["q3"] - parent["q1"])


def rss_per_kop(runs: list[dict]) -> float | None:
    """Least-squares slope of peak_rss_mb on attempted/1000 over `runs`, in MB
    per 1000 ops; None when the runs hold fewer than two attempted counts."""
    points = [(r["result"]["attempted"] / 1000, r["result"]["metrics"]["peak_rss_mb"]["value"])
              for r in runs]
    if len({x for x, _ in points}) < 2:
        return None
    return statistics.linear_regression(*zip(*points)).slope


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per-workload summary of end-to-end runs.

    `runs` are the records that run_pair makes; `metrics` is BENCHMARK.json's
    end_to_end list (name, better and bound).  A pair counts as a change win
    on a metric when the change's value is strictly better than the parent's.
    Each metric also gets `worse_by`, the change of the median toward worse as
    a fraction of the parent's median, next to its `bound`; `within_bound`,
    whether worse_by is at most the bound (not when worse_by is None); and
    `claim_met`, whether the pairs meet claim_met's rule for a gain.
    `near_bound` lists the metrics whose worse_by is over half their bound,
    or None.

    A workload with a peak_rss_mb metric also gets `rss_mb_per_kop`, the RSS
    that each 1000 ops add (rss_per_kop over every run of both sides), and
    `rss_net_of_ops`: the change of the median RSS less that slope times the
    change of the median attempted count, as a fraction of the parent's
    median RSS.  A benchmark that keeps a record per op grows its RSS with
    its throughput, and this separates that growth from the program's own.

    When the runs carry interleaved set-up samples, `setup_s_interleaved`
    gives their median and quartiles on each side, pooled over the pairs,
    and the change of the median toward worse as `worse_by`."""
    out = {}
    for wl in sorted({r["workload"] for r in runs}):
        mine = [r for r in runs if r["workload"] == wl]
        by_pair = {}
        for r in mine:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
        pairs = [p for _, p in sorted(by_pair.items()) if set(p) == {"parent", "change"}]
        summary = {"pairs": len(pairs), "seeds": [p["parent"]["seed"] for p in pairs]}
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            value = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                     for side in ("parent", "change")}
            wins = sum((c < p) if lower else (c > p)
                       for p, c in zip(value["parent"], value["change"]))
            stats = {side: quartiles(v) for side, v in value.items()}
            worse = worse_by(stats["parent"]["median"], stats["change"]["median"], m["better"])
            summary[name] = {"better": m["better"], **stats, "change_wins": wins,
                             "worse_by": worse, "bound": m["bound"],
                             "within_bound": worse is not None and worse <= m["bound"],
                             "claim_met": claim_met(len(pairs), wins, stats["parent"],
                                                    stats["change"], m["better"])}
        summary["near_bound"] = [
            m["name"] for m in metrics
            if summary[m["name"]]["worse_by"] is None
            or summary[m["name"]]["worse_by"] > m["bound"] / 2]
        summary["attempted"] = {side: quartiles([p[side]["result"]["attempted"] for p in pairs])
                                for side in ("parent", "change")}
        setups = {side: [t for p in pairs for t in p[side].get("setup_s_interleaved", [])]
                  for side in ("parent", "change")}
        if all(setups.values()):
            stats = {side: quartiles(v) for side, v in setups.items()}
            summary["setup_s_interleaved"] = {
                **stats, "samples": len(setups["parent"]),
                "worse_by": worse_by(stats["parent"]["median"], stats["change"]["median"],
                                     "lower")}
        if "peak_rss_mb" in summary:
            slope = rss_per_kop(mine)
            summary["rss_mb_per_kop"] = slope
            rss, ops = summary["peak_rss_mb"], summary["attempted"]
            summary["rss_net_of_ops"] = None if slope is None else (
                (rss["change"]["median"] - rss["parent"]["median"]
                 - slope * (ops["change"]["median"] - ops["parent"]["median"]) / 1000)
                / rss["parent"]["median"])
        digests = {(r["seed"], r["figures"].get("digest")) for r in mine}
        if all(d is not None for _, d in digests):
            summary["same_digest_every_seed"] = len(digests) == len({s for s, _ in digests})
        summary["all_gates_passed"] = all(r["exit_code"] == 0 for r in mine)
        out[wl] = summary
    return out


def summarize_traced(runs: list[dict]) -> dict:
    """Per workload of the traced runs: each run's pair, side, seed and exit
    code, in the order they ran, and whether every one exited 0."""
    out = {}
    for r in runs:
        out.setdefault(r["workload"], {"runs": []})["runs"].append(
            {k: r[k] for k in ("pair", "side", "seed", "exit_code")})
    for summary in out.values():
        summary["all_gates_passed"] = all(r["exit_code"] == 0 for r in summary["runs"])
    return out


def parse_output(stdout: str) -> tuple[dict, str, dict, dict]:
    """(env, gate line, figures, final JSON object) of one run.py output."""
    lines = stdout.strip().splitlines()
    env = json.loads(next(ln for ln in lines if ln.startswith("env "))[len("env "):])
    gates = next((ln for ln in lines if ln.startswith("gates:")), "gates: missing")
    figures = {}
    for ln in lines:
        if ln.strip().startswith("figure "):
            key, _, value = ln.strip()[len("figure "):].partition(" = ")
            figures[key] = value
    return env, gates, figures, json.loads(lines[-1])


def rev_parse(rev: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> Path:
    """Extract `git archive rev` into dest; return dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def run_one(tree: Path, workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode not in (0, 1):
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    env, gates, figures, result = parse_output(done.stdout)
    return {"exit_code": done.returncode, "env": env, "gates": gates, "figures": figures,
            "result": result}


def setup_once(tree: Path, workload: str, seed: int) -> float:
    """One fresh-interpreter set-up of `workload` in `tree`, in seconds."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--setup-only"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def run_pair(trees: dict, workload: str, seed: int, pair: int, trace: int) -> list[dict]:
    """Both sides of pair `pair` (1-based): parent first when it is odd.  An
    end-to-end pair then adds SETUP_SAMPLES set-ups per side, in the same
    alternating order, as each record's `setup_s_interleaved`."""
    order = ("parent", "change") if pair % 2 else ("change", "parent")
    records = []
    for side in order:
        rec = {"side": side, "workload": workload, "seed": seed, "pair": pair,
               "ran_first": order[0]}
        rec.update(run_one(trees[side], workload, seed, trace))
        print(f"{workload} pair {pair} seed {seed} {side}: {rec['gates']}, "
              f"attempted {rec['result']['attempted']}", file=sys.stderr, flush=True)
        records.append(rec)
    if not trace:
        for _ in range(SETUP_SAMPLES):
            for rec in records:
                rec.setdefault("setup_s_interleaved", []).append(
                    setup_once(trees[rec["side"]], workload, seed))
    return records


def machine(env: dict) -> dict:
    """The host block: CPU model and OS here, the rest from a run's env line."""
    cpu = platform.processor() or "unknown"
    info = Path("/proc/cpuinfo")  # Linux only
    if info.exists():
        cpu = next((ln.split(":", 1)[1].strip() for ln in info.read_text().splitlines()
                    if ln.startswith("model name")), cpu)
    return {"cpu": cpu, **{k: env[k] for k in MACHINE_FIELDS},
            "os": f"{platform.system()} {platform.release()}"}


def seeds_by_workload(runs: list[dict]) -> dict:
    """{workload: [seed of pair 1, seed of pair 2, ...]} of a run list."""
    seeds = {}
    for r in sorted(runs, key=lambda r: r["pair"]):
        if r["side"] == "parent":
            seeds.setdefault(r["workload"], []).append(r["seed"])
    return seeds


def protocol(runs: list[dict], traced_runs: list[dict]) -> str:
    def listing(runs):
        return "; ".join(f"{wl} {len(s)} pairs on seeds {','.join(map(str, s))}"
                         for wl, s in seeds_by_workload(runs).items())

    text = ("alternating parent/change pairs (odd pairs parent first), each side run from "
            "its own git archive copy of its commit; " + listing(runs) + ", untraced")
    if traced_runs:
        text += "; traced: " + listing(traced_runs)
    return text


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--change", default="HEAD", help="git revision of the change")
    p.add_argument("--pairs", type=workload_seeds, action="append", default=[],
                   metavar="WORKLOAD=SEEDS", help="e.g. sample_bulk=51-55")
    p.add_argument("--traced", type=workload_seeds, action="append", default=[],
                   metavar="WORKLOAD=SEEDS")
    p.add_argument("--what", required=True, help="one line on what is compared")
    p.add_argument("--out", type=Path, required=True,
                   help="an existing file of the same two commits gains the new pairs")
    p.add_argument("--scratch", type=Path, help="where the copies go (default: a temp dir)")
    args = p.parse_args(argv)

    commits = {"parent": rev_parse(args.parent), "change": rev_parse(args.change)}
    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="bench_pairs_"))
    trees = {side: export(c, scratch / side) for side, c in commits.items()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    runs, traced_runs = [], []
    if args.out.exists():
        old = json.loads(args.out.read_text())
        if (old["parent_commit"], old["change_commit"]) != (commits["parent"], commits["change"]):
            raise SystemExit(f"{args.out} compares other commits")
        runs, traced_runs = old["runs"], old["traced_runs"]
    for done, plan, trace in ((runs, args.pairs, 0), (traced_runs, args.traced, 1)):
        for wl, seeds in plan:
            # new pairs number on from the workload's last one, which keeps
            # the alternation of the side that runs first
            last = max((r["pair"] for r in done if r["workload"] == wl), default=0)
            for i, seed in enumerate(seeds, last + 1):
                done += run_pair(trees, wl, seed, i, trace)

    envs = [r["env"] for r in runs + traced_runs]
    seconds = {env["seconds"] for env in envs}
    if len(seconds) != 1:
        raise SystemExit(f"expected one run length over all runs, got {sorted(seconds)}")
    doc = {
        "what": args.what,
        "command": COMMAND.format(seconds=f"{seconds.pop():g}"),
        "parent_commit": commits["parent"],
        "change_commit": commits["change"],
        "machine": machine(envs[0]),
        "protocol": protocol(runs, traced_runs),
        "summary": summarize(runs, spec["end_to_end"]),
        "traced_summary": summarize_traced(traced_runs),
        "runs": runs,
        "traced_runs": traced_runs,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    failed = 0
    for kind, done in (("", runs), ("traced ", traced_runs)):
        for r in done:
            if r["exit_code"]:
                failed += 1
                print(f"{kind}{r['workload']} pair {r['pair']} seed {r['seed']} {r['side']} "
                      f"exited {r['exit_code']}: {r['gates']}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
