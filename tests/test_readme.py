import doctest
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs_as_shown():
    # the block between the fences: doctest run on the whole file would read
    # the closing fence as the last example's expected output
    block = README.read_text().split("```python\n", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README.md", str(README), 0)
    report: list[str] = []
    failed, tried = doctest.DocTestRunner().run(test, out=report.append)
    assert tried > 0 and failed == 0, "".join(report)
