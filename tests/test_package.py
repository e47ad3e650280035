import re
from pathlib import Path

import qubitswap

README = Path(__file__).resolve().parents[1] / "README.md"


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def documented_names() -> list[str]:
    """The backquoted names of the export list, which runs from the line
    naming ``qubitswap.__all__`` to the first blank line."""
    listing = library_section().split("`qubitswap.__all__`", 1)[1].split("\n\n", 1)[0]
    return re.findall(r"`(\w+)`", listing)


def test_documented_names_are_the_exports():
    names = documented_names()
    assert len(names) == len(set(names))
    assert sorted(names) == qubitswap.__all__


def test_each_documented_name_imports():
    for name in documented_names():
        namespace = {}
        exec(f"from qubitswap import {name}", namespace)
        assert namespace[name] is getattr(qubitswap, name)


def test_library_example_runs(capsys):
    code = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
    exec(code, {})
    concurrence, power = map(float, capsys.readouterr().out.split())
    assert 0 <= concurrence <= 1 and 0 <= power <= 1
