"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import metacloud


@pytest.fixture
def child_env():
    """This environment with the metacloud under test first on PYTHONPATH.

    A child process started with it imports the same package as the tests,
    whether that came from an install, PYTHONPATH or pytest's pythonpath.
    """
    package_root = str(Path(metacloud.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
