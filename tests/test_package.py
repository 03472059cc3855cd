from __future__ import annotations

import importlib

import pytest

import graphsym


def test_every_exported_name_resolves_and_stays():
    for name in graphsym.__all__:
        value = getattr(graphsym, name)
        assert vars(graphsym)[name] is value
        if name not in ("errors", "generators", "oracle"):
            assert getattr(importlib.import_module(value.__module__), name) is value


def test_star_import_matches_all():
    namespace: dict = {}
    exec("from graphsym import *", namespace)
    assert set(graphsym.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        graphsym.no_such_name
