"""Every module's public surface is its __all__, and README's "Library
layout" names each entry under its module."""

import importlib
import re
from pathlib import Path

import pytest

import tribell

MODULES = [name for name in tribell.__all__ if name[0].islower() and name != "__version__"] \
    + ["cli", "errors"]
README = Path(__file__).resolve().parents[1] / "README.md"


def _layout_entries() -> dict:
    """The backticked names of each `tribell.<module>` bullet of README's
    "Library layout", a span counting by its leading identifier."""
    text = README.read_text(encoding="utf-8").split("## Library layout", 1)[1]
    text = text.split("\n## ", 1)[0]
    out = {}
    for bullet in re.split(r"\n- (?=`tribell\.)", "\n" + text)[1:]:
        module = re.match(r"`tribell\.(\w+)`", bullet).group(1)
        out[module] = set(re.findall(r"`([A-Za-z_]\w*)", bullet))
    return out


def test_every_module_is_covered():
    assert sorted(MODULES) == sorted(_layout_entries())


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    mod = importlib.import_module(f"tribell.{name}")
    assert len(set(mod.__all__)) == len(mod.__all__)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_are_in_all(name):
    # functions and classes the module defines, lru_cache wrappers included
    mod = importlib.import_module(f"tribell.{name}")
    public = [n for n, obj in vars(mod).items()
              if not n.startswith("_") and callable(obj)
              and getattr(obj, "__module__", None) == mod.__name__]
    assert sorted(set(public) - set(mod.__all__)) == []


@pytest.mark.parametrize("name", MODULES)
def test_readme_names_every_all_entry(name):
    mod = importlib.import_module(f"tribell.{name}")
    assert sorted(set(mod.__all__) - _layout_entries()[name]) == []
