"""README names real code: every backticked Python identifier in README.md
(a name or a dotted name) occurs in the package sources or in
``tests/reference.py`` (``_occurs``), or resolves as a dotted path, alone or
under ``jumpbsde`` or one of its modules. A name the code no longer has
fails here."""

import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "jumpbsde").glob("*.py")) + [
    ROOT / "tests" / "reference.py"]
# backticked words that name no code: an environment prefix, the source
# directory and a file name
ALLOWED = {"OMP", "src", "pyproject.toml"}
NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`")


def _resolves(dotted):
    """Whether ``dotted`` is a module path or an attribute path under one."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


def _occurs(token, source):
    """Whether the first name of ``token`` occurs in ``source`` as a word,
    and each later one as an attribute (``.name``) or a key (``"name"``):
    config paths are keys."""
    first, *rest = token.split(".")
    return bool(re.search(rf"(?<![\w.]){first}(?!\w)", source)) and all(
        re.search(rf'\.{name}(?!\w)|"{name}"', source) for name in rest)


def _unresolved(text):
    """The backticked identifiers of ``text`` that name no code."""
    source = "\n".join(path.read_text() for path in SOURCES)
    roots = [""] + [f"{module}." for module in ["jumpbsde"] + [
        f"jumpbsde.{path.stem}" for path in SOURCES[:-1]]]
    return [token for token in dict.fromkeys(NAME.findall(text))
            if token not in ALLOWED and not _occurs(token, source)
            and not any(_resolves(root + token) for root in roots)]


def test_readme_names_real_code():
    assert _unresolved((ROOT / "README.md").read_text()) == []


def test_a_stale_name_in_the_readme_fails():
    # names the code has removed: the lattice's per-level probabilities and
    # the tree's and the batch's own checkpoint caches
    planted = ("`_Level.probs`", "`ScenarioTree._block`",
               "`_PathBatch._summed`")
    text = (ROOT / "README.md").read_text() + " ".join(planted)
    assert _unresolved(text) == [name.strip("`") for name in planted]
