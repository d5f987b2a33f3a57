"""Every name a module exports is there: a deletion that leaves a stale
`__all__` entry fails here, not at `from discordlab.<module> import *`."""

import importlib

import pytest

MODULES = ["discordlab", "discordlab.linalg", "discordlab.states", "discordlab.measures",
           "discordlab.dynamics", "discordlab.families"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
