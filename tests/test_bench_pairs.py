"""tools/bench_pairs.py: the pair summary, fed canned result lines."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]


def _line(run_s: float, rss: float, failed: int = 0) -> str:
    metrics = {"run_s": {"value": run_s, "unit": "s"}, "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return json.dumps({"correct": not failed, "attempted": 100, "failed": failed,
                       "metrics": metrics})


def test_summary_of_canned_pairs():
    stdout = "workload sweep  seed 7\n  run_s 1.0 s\n{}\n"
    parent = [bench_pairs.parse_result(stdout.format(_line(t, 30.0)))
              for t in (1.0, 1.1, 0.9, 1.2, 1.0)]
    change = [bench_pairs.parse_result(stdout.format(_line(t, 34.0, failed=f)))
              for t, f in ((0.9, 0), (1.0, 0), (0.95, 1), (1.0, 0), (0.8, 0))]
    lines = bench_pairs.summarize(END_TO_END, list(zip(parent, change)))
    assert lines == [
        "run_s (s): 1 [1, 1.1] -> 0.95 [0.9, 1]  -5.0%  lower in 4/5  "
        "worse by more than 0.25: no",
        "peak_rss_mb (MB): 30 [30, 30] -> 34 [34, 34]  +13.3%  lower in 0/5  "
        "worse by more than 0.1: YES",
        "parent: failed 0 of 500 attempted",
        "change: failed 1 of 500 attempted",
    ]
    summary = json.loads(bench_pairs.summary_json("sweep", 7, 25, END_TO_END,
                                                  list(zip(parent, change))))
    assert summary["workload"] == "sweep" and summary["pairs"] == 5
    assert summary["metrics"]["run_s"] == {
        "unit": "s", "bound": 0.25,
        "parent": {"median": 1.0, "q1": 1.0, "q3": 1.1},
        "change": {"median": 0.95, "q1": 0.9, "q3": 1.0},
        "relative": pytest.approx(-0.05), "lower": 4, "pairs": 5,
        "worse": False, "unresolved": False}
    rss = summary["metrics"]["peak_rss_mb"]
    assert (rss["worse"], rss["lower"], rss["relative"]) == (True, 0, pytest.approx(4 / 30))
    assert summary["totals"] == {"parent": {"failed": 0, "attempted": 500},
                                 "change": {"failed": 1, "attempted": 500}}


def test_a_metric_wider_than_its_bound_is_unresolved_unless_every_run_beats_the_parent():
    # The parent's run_s quartiles are 0.8 and 1.4 around a median of 1.0:
    # a spread of 0.6, wider than 0.25 x 1.0.
    metrics = [{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
               {"name": "hits", "unit": "count", "better": "higher", "bound": 0.25}]

    def result(run_s: float, hits: float) -> dict:
        return {"attempted": 1, "failed": 0, "metrics": {"run_s": {"value": run_s},
                                                         "hits": {"value": hits}}}

    parent = [result(t, 10 * t) for t in (1.0, 1.5, 0.7, 1.4, 0.8)]
    # (change runs, whether run_s and hits are marked).  run_s is better
    # lower and hits higher, so runs that all beat the parent on one of
    # them cannot on the other.
    for change, marks in (([0.9, 1.0, 0.95, 1.0, 0.8], [True, True]),
                          ([0.6, 0.5, 0.65, 0.6, 0.55], [False, True]),
                          ([1.6, 2.0, 1.9, 1.8, 1.7], [True, False])):
        pairs = list(zip(parent, [result(t, 10 * t) for t in change]))
        lines = bench_pairs.summarize(metrics, pairs)
        assert [line.endswith("  unresolved") for line in lines[:2]] == marks
    steady = [result(1.0, 10.0)] * 5
    lines = bench_pairs.summarize(metrics, list(zip(steady, steady)))
    assert not any(line.endswith("unresolved") for line in lines)


@pytest.mark.parametrize("stdout", ["", "benchmark failed: timeout\n", "{\"digest\": 1}\n"])
def test_a_run_without_a_result_line_is_refused(stdout):
    with pytest.raises(bench_pairs.NoResultError):
        bench_pairs.parse_result(stdout)


def test_main_runs_this_interpreter_for_the_benchmark_run_length(tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "parent" / "BENCHMARK.json").write_text(
        json.dumps({"run_seconds": 25, "end_to_end": END_TO_END}))
    calls = []

    def fake_run(cmd, cwd, capture_output, text):
        calls.append((cmd, Path(cwd).name))
        return bench_pairs.subprocess.CompletedProcess(cmd, 0, stdout=_line(1.0, 30.0) + "\n",
                                                       stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--workload", "sweep"]) == 0
    assert [side for _, side in calls[:4]] == ["parent", "change", "change", "parent"]
    assert len(calls) == 2 * bench_pairs.MIN_PAIRS
    for cmd, side in calls:
        assert cmd == [bench_pairs.sys.executable, str(tmp_path / side / "perfbench" / "run.py"),
                       "--workload", "sweep", "--seed", "7", "--seconds", "25", "--trace", "0"]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "workload sweep  seed 7  pairs 10  seconds 25"
    # One line per metric and side, then the JSON summary last.
    assert len(out) == 1 + len(END_TO_END) + 2 + 1
    summary = json.loads(out[-1])
    assert (summary["workload"], summary["seed"], summary["pairs"], summary["seconds"]) == (
        "sweep", 7, 10, 25)
    assert list(summary["metrics"]) == ["run_s", "peak_rss_mb"]
    assert summary["metrics"]["run_s"]["unresolved"] is False


@pytest.mark.parametrize("argv", [["--pairs", "9"], ["--seconds", "10"]])
def test_main_refuses_fewer_pairs_or_another_run_length(argv):
    with pytest.raises(SystemExit):
        bench_pairs.main(["parent", "change", "--workload", "sweep", *argv])
