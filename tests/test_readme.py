"""The README's examples print what it shows: ``doctest`` runs the file."""

import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_examples_print_what_they_show():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted >= 10
    assert result.failed == 0
