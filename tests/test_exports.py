"""Every public name the package exports has a user outside the tests: the
package itself, the README or the benchmark. A name that only tests read
is dead weight to be deleted, not exported."""

import inspect
import re
from pathlib import Path

import mhekit as mk

ROOT = Path(__file__).resolve().parents[1]


def _user_texts():
    package = [p for p in sorted((ROOT / "src" / "mhekit").glob("*.py")) if p.name != "__init__.py"]
    bench = sorted((ROOT / "perfbench").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.md"))
    return [p.read_text(encoding="utf-8") for p in [*package, ROOT / "README.md", *bench]]


def test_every_export_has_a_user_outside_the_tests():
    texts = _user_texts()
    names = [n for n, v in vars(mk).items() if not n.startswith("_") and not inspect.ismodule(v)]
    unused = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        own_line = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
        if not any(
            word.search(line) and not own_line.match(line)
            for text in texts
            for line in text.splitlines()
        ):
            unused.append(name)
    assert names and not unused, f"exported but used only by tests: {unused}"
