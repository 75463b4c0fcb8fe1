"""The summary step of tools/ab_bench.py on canned bench/run.py results;
no benchmark is run."""

import importlib.util
import json
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def ab_bench():
    path = ROOT / "tools" / "ab_bench.py"
    spec = importlib.util.spec_from_file_location("ab_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


END_TO_END = [
    {"name": "queries_per_s", "unit": "1/s", "better": "higher",
     "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def result(qps, rss, failed=0):
    return {"correct": failed == 0, "attempted": 100, "failed": failed,
            "metrics": {"queries_per_s": {"value": qps, "unit": "1/s"},
                        "peak_rss_mb": {"value": rss, "unit": "MB"}}}


def test_summary_of_ten_pairs(ab_bench):
    # the change is faster in nine pairs, ties in one, and uses 12 % more
    # memory in every pair
    parent_qps = [100, 102, 98, 101, 99, 103, 97, 100, 104, 96]
    change_qps = [150, 149, 151, 148, 152, 150, 147, 153, 150, 96]
    pairs = [{"parent": result(a, 20.0), "change": result(c, 22.4)}
             for a, c in zip(parent_qps, change_qps)]
    s = ab_bench.summarise(pairs, END_TO_END)
    assert s["pairs"] == 10
    assert s["all_answers_correct"] is True
    assert s["failed"] == {"parent": [0] * 10, "change": [0] * 10}
    q = s["metrics"]["queries_per_s"]
    assert q["parent_median"] == 100
    assert q["change_median"] == 150
    assert q["parent_q1_q3"] == [98.25, 101.75]
    assert q["change_wins"] == 9
    assert q["ratio"] == 1.5
    assert q["within_bound"] is True
    assert q["gain"] is True
    m = s["metrics"]["peak_rss_mb"]
    assert m["change_wins"] == 0
    assert m["ratio"] == pytest.approx(1.12)
    assert m["within_bound"] is False
    assert m["gain"] is False
    text = ab_bench.format_summary(s)
    assert "wins 9/10" in text and "OVER BOUND" in text


def test_summary_needs_nine_tenths_of_the_pairs(ab_bench):
    # better medians from 8 wins of 10 are no gain, and a failed run
    # marks the answers incorrect
    parent_qps = [100] * 10
    change_qps = [120] * 8 + [90, 90]
    pairs = [{"parent": result(a, 20.0), "change": result(c, 20.0)}
             for a, c in zip(parent_qps, change_qps)]
    pairs[3]["change"] = result(120, 20.0, failed=2)
    s = ab_bench.summarise(pairs, END_TO_END)
    q = s["metrics"]["queries_per_s"]
    assert q["change_wins"] == 8
    assert q["gain"] is False
    assert s["all_answers_correct"] is False
    assert s["failed"]["change"][3] == 2
    assert s["metrics"]["peak_rss_mb"]["within_bound"] is True


def test_summary_keeps_crashed_runs_out_of_the_metrics(ab_bench):
    # a crashed run leaves its pair out of the medians but counts against
    # the gain: 8 wins in 8 complete pairs of 10 is short of nine tenths
    pairs = [{"parent": result(100, 20.0), "change": result(150, 20.0)}
             for _ in range(10)]
    crash = {"error": {"exit": 1, "stdout": "", "stderr": "Traceback ..."}}
    pairs[4]["change"] = crash
    pairs[7]["parent"] = crash
    s = ab_bench.summarise(pairs, END_TO_END)
    assert (s["pairs"], s["complete_pairs"]) == (10, 8)
    assert s["crashed"] == {"parent": [8], "change": [5]}
    assert s["all_answers_correct"] is False
    assert s["failed"]["change"][4] is None
    q = s["metrics"]["queries_per_s"]
    assert (q["change_wins"], q["ratio"], q["gain"]) == (8, 1.5, False)
    assert "crashed runs in pairs parent [8], change [5]" in \
        ab_bench.format_summary(s)


def test_session_records_a_crashed_run_and_goes_on(ab_bench, tmp_path,
                                                   monkeypatch, capsys):
    # two stand-in checkouts whose bench/run.py prints a canned result;
    # the change's crashes on its first run only
    script = """import json, pathlib, sys
here = pathlib.Path(__file__).parent
n = here / "n"
k = int(n.read_text()) if n.exists() else 0
n.write_text(str(k + 1))
if %r and k == 0:
    sys.exit("boom")
print(json.dumps({"correct": True, "attempted": 10, "failed": 0,
                  "metrics": {"queries_per_s": {"value": %d, "unit": "1/s"},
                              "peak_rss_mb": {"value": 20.0, "unit": "MB"}}}))
"""
    for side, crash, qps in (("parent", False, 100), ("change", True, 150)):
        (tmp_path / side / "bench").mkdir(parents=True)
        (tmp_path / side / "bench" / "run.py").write_text(
            script % (crash, qps))
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": END_TO_END}))
    out = tmp_path / "ab.json"
    monkeypatch.setattr(sys, "argv", [
        "ab_bench.py", "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"), "--workload", "w",
        "--pairs", "3", "--out", str(out)])
    ab_bench.main()
    assert "pair 1: queries_per_s parent 100, change crashed (exit 1)" in \
        capsys.readouterr().out
    record = json.loads(out.read_text())
    assert [p["first"] for p in record["runs"]] == \
        ["parent", "change", "parent"]
    assert record["runs"][0]["change"]["error"]["exit"] == 1
    assert "boom" in record["runs"][0]["change"]["error"]["stderr"]
    assert record["summary"] == ab_bench.summarise(record["runs"],
                                                   END_TO_END)
    assert record["summary"]["complete_pairs"] == 2
    assert record["summary"]["metrics"]["queries_per_s"]["change_wins"] == 2


def test_bench_12_record_is_the_tools_output(ab_bench):
    # each A/B session in BENCH_12.json is an --out object as written:
    # its summary is rebuilt from its runs by the tool's summary step
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "end_to_end"]
    record = json.loads((ROOT / "BENCH_12.json").read_text())
    sessions = record["end_to_end"]
    assert len(sessions) == 4
    for session in sessions.values():
        assert set(session) == {"workload", "seed", "runs", "summary"}
        assert session["summary"] == ab_bench.summarise(session["runs"],
                                                        end_to_end)
