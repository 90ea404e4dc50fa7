"""README's "A worked example" runs as a doctest, through the documented
``from tangentia import ...`` path."""
import doctest
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _worked_example() -> str:
    section = README.read_text().split("## A worked example", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.S)
    assert match, "README's worked example has no python block"
    return match.group(1)


def test_readme_worked_example():
    test = doctest.DocTestParser().get_doctest(_worked_example(), {}, "README", str(README), 0)
    assert test.examples
    runner = doctest.DocTestRunner(optionflags=doctest.REPORT_NDIFF)
    failures = []
    runner.run(test, out=failures.append)
    assert runner.failures == 0, "".join(failures)
