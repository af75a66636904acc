"""``tools/mutate.py`` lists its sites, and writes each mutant, without running one."""

import ast
import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "mutate.py"
_spec = importlib.util.spec_from_file_location("mutate", _PATH)
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)


def test_every_function_has_sites():
    names = [site[0] for site in mutate.sites()]
    assert len(names) == len(set(names))
    for spec in mutate.FUNCTIONS:
        assert any(name.startswith(spec + ":") for name in names), spec


def test_equivalent_mutants_are_listed_sites_with_reasons():
    names = {site[0] for site in mutate.sites()}
    for name, reason in mutate.EQUIVALENT.items():
        assert name in names and reason.strip(), name


def test_unknown_function_is_named():
    with pytest.raises(LookupError, match="em.py:no_such_function"):
        mutate.sites(["em.py:no_such_function"])


@pytest.mark.parametrize("spec", ["em.py:certificate", "estimators.py:threshold_rescale"])
def test_each_mutant_changes_its_function_alone(spec):
    file = spec.split(":")[0]
    source = (mutate.PACKAGE / file).read_text(encoding="utf-8")
    plain = ast.unparse(ast.parse(source)) + "\n"
    for name, _, func, change, index in mutate.sites([spec]):
        mutant = mutate.mutant_source(source, func, change, index)
        compile(mutant, file, "exec")
        changed = [a for a, b in zip(plain.splitlines(), mutant.splitlines()) if a != b]
        assert len(changed) == 1, name
