"""Shared fixtures."""

import os

import pytest

import affgroth


@pytest.fixture
def subprocess_env():
    """Environment for a child Python process that must import the same
    affgroth as the suite, however the suite found it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(affgroth.__file__)))
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ,
                PYTHONPATH=src + (os.pathsep + path if path else ""))
