"""tools/abtest.py: pair order, the verdict rule, the table and the JSON
file, with the benchmark runs replaced by canned metrics."""

import importlib.util
import json
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "abtest.py")
_spec = importlib.util.spec_from_file_location("abtest", TOOL)
abtest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abtest)


def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_parent_iqr():
    # an IQR of 0.55, 5% of the median, well inside the bound
    parent = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]
    # every pair won, but by less than the parent's IQR
    assert abtest.verdict(parent, [p - 0.1 for p in parent], "lower", 0.25) == (10, "-")
    # every pair won by more than it
    assert abtest.verdict(parent, [p - 0.6 for p in parent], "lower", 0.25) == (10, "gain")
    # 8 of 10 pairs are not enough, whatever the gain
    change = [p - 0.6 for p in parent[:8]] + [p + 0.1 for p in parent[8:]]
    assert abtest.verdict(parent, change, "lower", 0.25)[0] == 8
    assert abtest.verdict(parent, change, "lower", 0.25)[1] != "gain"
    # ties count for neither side; "higher is better" flips the sign
    assert abtest.verdict(parent, parent, "lower", 0.25) == (0, "-")
    assert abtest.verdict(parent, [p + 0.6 for p in parent], "higher", 0.25) == (10, "gain")


def test_worse_beyond_the_bound():
    parent = [10.0] * 4
    assert abtest.verdict(parent, [12.4] * 4, "lower", 0.25) == (0, "-")
    assert abtest.verdict(parent, [12.6] * 4, "lower", 0.25) == (0, "worse")
    assert abtest.verdict(parent, [12.6] * 4, "lower", None) == (0, "-")


def test_unresolved_when_the_parent_spreads_wider_than_the_bound():
    # an IQR of 0.55, 38% of the median 1.45: wider than a 0.25 bound
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    assert abtest.verdict(parent, [p - 0.1 for p in parent], "lower", 0.25) == (10, "unresolved")
    assert abtest.verdict(parent, [p + 0.3 for p in parent], "lower", 0.25) == (0, "unresolved")
    # a median worse by more than the bound reads worse, however wide the spread
    assert abtest.verdict(parent, [p + 0.4 for p in parent], "lower", 0.25) == (0, "worse")
    assert abtest.verdict(parent, parent, "lower", 0.4) == (0, "-")
    assert abtest.verdict(parent, parent, "lower", None) == (0, "-")
    # a change whose every run beats every parent run tells, however wide
    # the spread; winning every pair is not enough
    assert abtest.verdict(parent, [0.8] * 10, "lower", 0.25) == (10, "gain")
    assert abtest.verdict(parent, [0.95] * 10, "lower", 0.25) == (10, "-")
    assert abtest.verdict(parent, [2.1] * 10, "higher", 0.25) == (10, "gain")
    assert abtest.verdict(parent, [p - 0.7 for p in parent], "lower", 0.25) == (10, "unresolved")


def checkouts(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    return [str(tmp_path / "parent"), str(tmp_path / "change")]


def test_pairs_alternate_and_the_table_has_a_row_per_metric(tmp_path, monkeypatch, capsys):
    order = []

    def fake(checkout, args):
        side = os.path.basename(checkout)
        order.append(side)
        return {"check_s": 1.0 if side == "change" else 2.0 + 0.01 * len(order),
                "proof_adds": 100}, {}

    monkeypatch.setattr(abtest, "run_bench", fake)
    argv = [*checkouts(tmp_path), "--workload", "urq-refute", "--seed", "3", "--pairs", "3"]
    assert abtest.main(argv) == 0
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out
    rows = {line.split()[0]: line for line in out.splitlines() if not line.startswith("#")}
    assert rows["check_s"].endswith("gain")
    assert " 0/3 " in rows["proof_adds"] and rows["proof_adds"].endswith("-")


def test_out_writes_the_table_as_one_json_object(tmp_path, monkeypatch):
    runs = {"parent": iter([3.0, 1.0, 2.0, 4.0]), "change": iter([2.0, 0.5, 1.0, 3.0])}

    def fake(checkout, args):
        side = os.path.basename(checkout)
        meta = {"commit": side[0] * 40, "src_sha256": side[:2] * 8, "cpu": "cpu",
                "nproc": 2, "python": "3.11.7", "rounds": 1}
        return {"par2_s": next(runs[side]), "proof_adds": 7}, meta

    monkeypatch.setattr(abtest, "run_bench", fake)
    out = tmp_path / "ab.json"
    argv = [*checkouts(tmp_path), "--workload", "lpn-xor", "--seed", "5", "--pairs", "4",
            "--seconds", "9", "--out", str(out)]
    assert abtest.main(argv) == 0
    doc = json.loads(out.read_text())
    assert {k: doc[k] for k in ("workload", "seed", "pairs", "seconds")} == {
        "workload": "lpn-xor", "seed": 5, "pairs": 4, "seconds": 9.0}
    assert doc["parent"] == {"commit": "p" * 40, "src_sha256": "pa" * 8}
    assert doc["change"] == {"commit": "c" * 40, "src_sha256": "ch" * 8}
    assert doc["machine"] == {"cpu": "cpu", "nproc": 2, "python": "3.11.7"}
    assert set(doc["metrics"]) == {"par2_s", "proof_adds"}
    # runs in pair order: pairs 1 and 3 run the parent first, 2 and 4 the change
    par2 = doc["metrics"]["par2_s"]
    assert par2["parent"] == {"median": 2.5, "q1": 1.25, "q3": 3.75, "runs": [3.0, 1.0, 2.0, 4.0]}
    assert par2["change"]["runs"] == [2.0, 0.5, 1.0, 3.0]
    assert par2["change"]["median"] == 1.5
    # the parent's IQR (2.5) is its whole median: wider than the 0.25 bound
    assert (par2["better"], par2["bound"]) == ("lower", 0.25)
    assert (par2["wins"], par2["verdict"]) == (4, "unresolved")
    adds = doc["metrics"]["proof_adds"]
    assert (adds["wins"], adds["verdict"], adds["change"]["median"]) == (0, "-", 7)


def test_run_bench_reads_the_metrics_and_the_meta_line(tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "print('# meta {\"commit\": \"abc\", \"nproc\": 2}')\n"
        "print('fail_frac = 0/1 = 0.000')\n"
        "print('{\"failed\": 0, \"attempted\": 1, \"metrics\": {\"par2_s\": {\"value\": 1.5}}}')\n"
    )
    args = abtest.argparse.Namespace(workload="urq-refute", seed=1, seconds=1.0)
    assert abtest.run_bench(str(tmp_path), args) == ({"par2_s": 1.5}, {"commit": "abc", "nproc": 2})
