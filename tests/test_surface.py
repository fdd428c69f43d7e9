"""The package's public surface: the top-level names are the modules' own."""

import inspect

import pathcensus
from pathcensus import analysis, engine, errors, oracle, types


def test_top_level_names_are_the_modules_public_names():
    top = {
        name
        for name, value in vars(pathcensus).items()
        if not inspect.ismodule(value) and (name == "__version__" or name[0] != "_")
    }
    error_classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    listed = set().union(*(m.__all__ for m in (analysis, engine, oracle, types)))
    assert top == listed | error_classes | {"__version__"}
    for module in (analysis, engine, oracle, types):
        for name in module.__all__:
            assert getattr(pathcensus, name) is getattr(module, name), name
