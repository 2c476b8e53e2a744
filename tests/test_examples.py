"""Every example script imports cleanly (their ``main()`` is not run)."""

import importlib.util
import os

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")
SCRIPTS = sorted(n for n in os.listdir(EXAMPLES) if n.endswith(".py"))


def test_examples_found():
    assert len(SCRIPTS) >= 7


@pytest.mark.parametrize("name", SCRIPTS)
def test_example_imports(name):
    spec = importlib.util.spec_from_file_location(
        f"example_{name[:-3]}", os.path.join(EXAMPLES, name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
