import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "op_p50_us", "better": "lower", "bound": 0.25},
           {"name": "work_per_s", "better": "higher", "bound": 0.1}]


def _run(side, pair, seed, p50, rate, attempted=100, exit_code=0, digest="ab", rss=None):
    metrics = {"op_p50_us": {"value": p50}, "work_per_s": {"value": rate}}
    if rss is not None:
        metrics["peak_rss_mb"] = {"value": rss}
    return {"side": side, "workload": "w", "seed": seed, "pair": pair,
            "exit_code": exit_code, "figures": {"digest": digest} if digest else {},
            "result": {"attempted": attempted, "metrics": metrics}}


def test_summary_quartiles_and_wins():
    runs = []
    # parent p50 10, 20, 30, 40, 50; the change is faster in pairs 1-4
    for i, (pp, cp) in enumerate([(10, 9), (20, 19), (30, 29), (40, 39), (50, 51)], 1):
        runs += [_run("parent", i, 60 + i, pp, 1000 / pp, attempted=10 * i),
                 _run("change", i, 60 + i, cp, 1000 / cp, attempted=20 * i)]
    s = bench_pairs.summarize(runs, METRICS)["w"]
    assert s["pairs"] == 5 and s["seeds"] == [61, 62, 63, 64, 65]
    # the inclusive method: quartiles interpolate between the order statistics
    assert s["op_p50_us"]["parent"] == {"median": 30, "q1": 20, "q3": 40}
    assert s["op_p50_us"]["change_wins"] == 4
    assert s["work_per_s"]["change_wins"] == 4
    assert s["work_per_s"]["better"] == "higher"
    assert s["attempted"]["change"] == {"median": 60, "q1": 40, "q3": 80}
    assert s["same_digest_every_seed"] and s["all_gates_passed"]


def test_summary_flags_and_unpaired_runs():
    runs = [_run("parent", 1, 7, 10, 5), _run("change", 1, 7, 10, 5, digest="cd"),
            _run("parent", 2, 8, 10, 5, exit_code=1), _run("change", 2, 8, 10, 5),
            _run("parent", 3, 9, 10, 5)]  # pair 3 has no change side
    s = bench_pairs.summarize(runs, METRICS)["w"]
    assert s["pairs"] == 2
    # ties are no wins
    assert s["op_p50_us"]["change_wins"] == 0
    assert s["op_p50_us"]["parent"] == {"median": 10, "q1": 10, "q3": 10}
    assert not s["same_digest_every_seed"]
    assert not s["all_gates_passed"]
    # a workload without a digest figure gets no digest verdict
    runs = [_run("parent", 1, 7, 10, 5, digest=None), _run("change", 1, 7, 9, 6, digest=None)]
    assert "same_digest_every_seed" not in bench_pairs.summarize(runs, METRICS)["w"]


def test_summary_bound_headroom():
    runs = []
    # medians: op_p50_us 100 -> 104 (4% worse, bound 25%); work_per_s
    # 10 -> 9.4 (6% worse, over half of its 10% bound)
    for i, (pp, cp, pr, cr) in enumerate([(90, 95, 9, 8.5), (100, 104, 10, 9.4),
                                          (110, 108, 11, 9.9)], 1):
        runs += [_run("parent", i, 70 + i, pp, pr), _run("change", i, 70 + i, cp, cr)]
    s = bench_pairs.summarize(runs, METRICS)["w"]
    assert s["op_p50_us"]["worse_by"] == pytest.approx(0.04)
    assert s["op_p50_us"]["bound"] == 0.25
    assert s["work_per_s"]["worse_by"] == pytest.approx(0.06)
    assert s["work_per_s"]["bound"] == 0.1
    assert s["near_bound"] == ["work_per_s"]
    # a better change reads negative; a parent median of 0 has no fraction
    runs = [_run("parent", 1, 7, 10, 5), _run("change", 1, 7, 8, 6)]
    s = bench_pairs.summarize(runs, METRICS)["w"]
    assert s["op_p50_us"]["worse_by"] == pytest.approx(-0.2)
    assert s["work_per_s"]["worse_by"] == pytest.approx(-0.2)
    assert s["near_bound"] == []
    assert bench_pairs.worse_by(0.0, 0.0, "higher") == 0.0
    assert bench_pairs.worse_by(0.0, 0.5, "higher") is None
    runs = [_run("parent", 1, 7, 10, 0.0), _run("change", 1, 7, 10, 0.5)]
    assert bench_pairs.summarize(runs, METRICS)["w"]["near_bound"] == ["work_per_s"]


RSS_METRICS = METRICS + [{"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]


def test_summary_rss_per_kop():
    # RSS that grows by 0.1 MB per 1000 ops and nothing else: the change runs
    # more ops, so its median RSS rises 4 MB, all of it from the op count
    runs = []
    for i, (pa, ca) in enumerate([(60_000, 100_000), (62_000, 102_000), (64_000, 104_000)], 1):
        runs += [_run("parent", i, 80 + i, 10, 5, attempted=pa, rss=40 + pa / 1e4),
                 _run("change", i, 80 + i, 9, 6, attempted=ca, rss=40 + ca / 1e4)]
    s = bench_pairs.summarize(runs, RSS_METRICS)["w"]
    assert s["peak_rss_mb"]["worse_by"] == pytest.approx(4 / 46.2)
    assert s["rss_mb_per_kop"] == pytest.approx(0.1)
    assert s["rss_net_of_ops"] == pytest.approx(0.0, abs=1e-12)
    # by hand: attempted 10k..40k against RSS 10, 12, 13, 16 fit a slope of
    # 95/500; the medians move 11 -> 14.5 MB and 15k -> 35k ops
    runs = [_run("parent", 1, 7, 10, 5, attempted=10_000, rss=10),
            _run("change", 1, 7, 10, 5, attempted=30_000, rss=13),
            _run("parent", 2, 8, 10, 5, attempted=20_000, rss=12),
            _run("change", 2, 8, 10, 5, attempted=40_000, rss=16)]
    s = bench_pairs.summarize(runs, RSS_METRICS)["w"]
    assert s["rss_mb_per_kop"] == pytest.approx(0.19)
    assert s["rss_net_of_ops"] == pytest.approx((3.5 - 0.19 * 20) / 11)
    # one attempted count fits no slope; a benchmark without RSS gets neither
    runs = [_run(side, 1, 7, 10, 5, rss=r) for side, r in (("parent", 10), ("change", 11))]
    s = bench_pairs.summarize(runs, RSS_METRICS)["w"]
    assert s["rss_mb_per_kop"] is None and s["rss_net_of_ops"] is None
    s = bench_pairs.summarize(runs, METRICS)["w"]
    assert "rss_mb_per_kop" not in s and "rss_net_of_ops" not in s


def test_summary_setup_interleaved():
    # three samples per side and pair, pooled over the pairs: the parent's
    # 0.10..0.15 and the change's 0.11..0.16, so the median is 10% worse
    runs = []
    for i in (1, 2):
        for side, base in (("parent", 0.10), ("change", 0.11)):
            rec = _run(side, i, 90 + i, 10, 5)
            rec["setup_s_interleaved"] = [base + 0.01 * (3 * (i - 1) + k) for k in range(3)]
            runs.append(rec)
    s = bench_pairs.summarize(runs, METRICS)["w"]["setup_s_interleaved"]
    assert s["samples"] == 6
    assert s["parent"]["median"] == pytest.approx(0.125)
    assert s["parent"]["q1"] == pytest.approx(0.1125)
    assert s["change"]["q3"] == pytest.approx(0.1475)
    assert s["worse_by"] == pytest.approx(0.01 / 0.125)
    # runs without samples, as in files made before them, get no entry
    assert "setup_s_interleaved" not in bench_pairs.summarize(
        [_run("parent", 1, 7, 10, 5), _run("change", 1, 7, 10, 5)], METRICS)["w"]


@pytest.mark.parametrize("pair, first", [(1, "parent"), (2, "change")])
def test_run_pair_interleaves_setups(monkeypatch, pair, first):
    # the set-ups follow the pair's order, side by side, three per side; a
    # traced pair takes none
    calls = []
    monkeypatch.setattr(bench_pairs, "run_one", lambda tree, *args: {
        "exit_code": 0, "gates": "gates: all passed", "result": {"attempted": 1}})

    def setup_once(tree, workload, seed):
        calls.append(tree)
        return float(len(calls))

    monkeypatch.setattr(bench_pairs, "setup_once", setup_once)
    trees = {"parent": "P", "change": "C"}
    records = bench_pairs.run_pair(trees, "w", 5, pair, 0)
    second = "change" if first == "parent" else "parent"
    assert calls == [trees[first], trees[second]] * 3
    assert [r["side"] for r in records] == [first, second]
    assert records[0]["setup_s_interleaved"] == [1.0, 3.0, 5.0]
    assert records[1]["setup_s_interleaved"] == [2.0, 4.0, 6.0]
    calls.clear()
    traced = bench_pairs.run_pair(trees, "w", 5, pair, 1)
    assert calls == [] and all("setup_s_interleaved" not in r for r in traced)


@pytest.mark.parametrize("text, want", [("51-55", [51, 52, 53, 54, 55]),
                                        ("3", [3]), ("1,4-5,9", [1, 4, 5, 9])])
def test_seed_list(text, want):
    assert bench_pairs.seed_list(text) == want


def test_parse_output_and_machine():
    env = {"python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1", "nproc": 2,
           "blas_threads": 1, "seed": 3, "seconds": 15.0, "commit": "unknown"}
    out = (f"env {json.dumps(env)}\n  figure digest = 19131fc2\n  figure words = 28\n"
           "gates: all passed\n{\"correct\": true, \"attempted\": 3}\n")
    got_env, gates, figures, result = bench_pairs.parse_output(out)
    assert got_env == env
    assert gates == "gates: all passed"
    assert figures == {"digest": "19131fc2", "words": "28"}
    assert result == {"correct": True, "attempted": 3}
    # the host block takes run.py's own record of versions and threads
    host = bench_pairs.machine(env)
    assert {k: host[k] for k in bench_pairs.MACHINE_FIELDS} == {
        k: env[k] for k in bench_pairs.MACHINE_FIELDS}
    assert "seed" not in host and "seconds" not in host and host["cpu"] and host["os"]


def test_protocol_lists_seeds_in_pair_order():
    runs = [_run("change", 2, 8, 1, 1), _run("parent", 2, 8, 1, 1),
            _run("parent", 1, 7, 1, 1), _run("change", 1, 7, 1, 1)]
    assert bench_pairs.seeds_by_workload(runs) == {"w": [7, 8]}
    text = bench_pairs.protocol(runs, [])
    assert "w 2 pairs on seeds 7,8, untraced" in text and "traced:" not in text
