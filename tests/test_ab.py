"""tests/ab.py, the paired A/B runner, on a tiny input."""

from ab import ROOT, STAGES, main


# The same tree as parent and change, three codes of minors-deep: every run
# gives the same H and counters, or the runner stops, and each ratio lies
# in its interval, for the pipeline and every stage.
def test_ab_same_tree_on_both_sides(capsys):
    assert main(["--parent", str(ROOT), "--change", str(ROOT), "--workload", "minors-deep",
                 "--seed", "3", "--codes", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "minors-deep, seed 3, 3 codes, ABBA/BAAB: change/parent"
    assert [line.split()[0] for line in lines[1:-1]] == ["pipeline", *STAGES]
    for line in lines[1:-1]:
        ratio, low, high = (float(x.strip("[],")) for x in line.split()[1:4])
        assert low <= ratio <= high
    assert lines[-1].startswith("minor faults")
