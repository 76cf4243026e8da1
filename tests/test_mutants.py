import re
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


# The catalogue of tests/mutants.py stays runnable: each mutant's text
# occurs exactly once in its file, and each test that should kill it is
# defined where it says.  Run the catalogue itself by hand.
@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_text_occurs_once(mutant):
    text = (ROOT / "src" / "zpscodes" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.tests
    for node in mutant.tests:
        path, _, name = node.partition("::")
        assert Path(ROOT / path).is_file(), node
        if name:
            assert re.search(rf"^def {re.escape(name)}\(", (ROOT / path).read_text(), re.M), node


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
