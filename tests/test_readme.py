"""The README's "Library use" example, run on tests/data/coverage20.svf.

Each line of the example that carries a comment states what it gives.
A comment that is a Python expression must equal the line's value; the
prose comments are checked by the predicates below.  A new prose comment
needs a predicate here, so the README cannot drift from the code it
documents.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VOCABULARY = Path(__file__).parent / "data" / "coverage20.svf"

# prose comment -> check of (the line's value, the example's names)
PROSE = {
    "6 distinct spellings": lambda value, names: len(value) == 6,
    "every spelling, no analyses": lambda value, names: value == names["index"].forms(),
    "who could produce it, entry among them": lambda value, names: names["entry"] in value,
    "as above": lambda value, names: value == names["recognize"](names["index"], "shaoghalan"),
}


def _library_use() -> list[str]:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library use\n\n```python\n(.*?)^```", readme, re.M | re.S)
    assert match, "README has no Library use block"
    return match.group(1).splitlines()


def _split(line: str) -> tuple[str, str | None]:
    """The code of a line and its comment; no string in the example
    holds a '#'."""
    code, hash_, comment = line.partition("#")
    return code.strip(), comment.strip() if hash_ else None


def test_library_use_block_gives_what_its_comments_say():
    names: dict = {}
    checked = []
    for line in _library_use():
        code, comment = _split(line)
        code = code.replace('"vocab.svf"', repr(str(VOCABULARY)))
        if not code:
            continue
        target, equals, expression = code.partition(" = ")
        if not equals:
            target, expression = None, code
        if comment is None:
            exec(code, names)
            continue
        value = eval(expression, names)
        if target:
            names[target] = value
        if comment in PROSE:
            assert PROSE[comment](value, names), line
        else:
            assert value == eval(comment, names), line
        checked.append(comment)
    # every commented line of the example was checked, prose ones included
    assert len(checked) == 8 and set(PROSE) <= set(checked), checked
