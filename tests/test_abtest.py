"""tools/abtest.py: pair order, the verdict rule and the table, with the
benchmark runs replaced by canned metrics."""

import importlib.util
import os

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    "tools", "abtest.py")
_spec = importlib.util.spec_from_file_location("abtest", TOOL)
abtest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(abtest)


def test_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_parent_iqr():
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9]
    # every pair won, but by less than the parent's IQR (0.55)
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


def test_pairs_alternate_and_the_table_has_a_row_per_metric(tmp_path, monkeypatch, capsys):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text("")
    order = []

    def fake(checkout, args):
        side = os.path.basename(checkout)
        order.append(side)
        return {"check_s": 1.0 if side == "change" else 2.0 + 0.01 * len(order),
                "proof_adds": 100}

    monkeypatch.setattr(abtest, "run_bench", fake)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "urq-refute",
            "--seed", "3", "--pairs", "3"]
    assert abtest.main(argv) == 0
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out
    rows = {line.split()[0]: line for line in out.splitlines() if not line.startswith("#")}
    assert rows["check_s"].endswith("gain")
    assert " 0/3 " in rows["proof_adds"] and rows["proof_adds"].endswith("-")
