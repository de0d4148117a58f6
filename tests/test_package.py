"""The package list: every name in ``repro.__all__`` is an importable subpackage."""

from __future__ import annotations

import importlib

import pytest

import repro


@pytest.mark.parametrize("name", repro.__all__)
def test_all_names_import(name):
    module = importlib.import_module(f"repro.{name}")
    assert module.__name__ == f"repro.{name}"
