"""The mutation gate's table stays live: `scripts/mutants.py` substitutes each
mutant's old text, so that text must occur exactly once in its file, and a
refactor that rewrites it must update the table."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_each_mutant_old_text_occurs_once():
    mutants = _mutants()
    assert len({m.name for m in mutants}) == len(mutants)
    for m in mutants:
        assert (ROOT / m.path).read_text(encoding="utf-8").count(m.old) == 1, m.name
        assert m.new != m.old, m.name
        assert m.tests and all((ROOT / t).is_file() for t in m.tests), m.name
