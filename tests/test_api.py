"""The public names of the package and the README's library quick start."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import quadparts

from .support import child_env

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_public_name_resolves_in_a_fresh_process():
    """`from quadparts import *` binds every name of `__all__`, the ones the
    package imports on first access included, and so does a plain import."""
    probe = ("import quadparts; from quadparts import *; from quadparts import spider, partition_tree; "
             "missing = [n for n in quadparts.__all__ if n not in globals() or getattr(quadparts, n) is not globals()[n]]; "
             "print(len(quadparts.__all__), missing)")
    out = subprocess.run([sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True,
                         check=True, timeout=30)
    assert out.stdout == f"{len(quadparts.__all__)} []\n"


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quadparts.no_such_name


def test_readme_library_quick_start_prints_what_it_documents():
    block = re.search(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.S).group(1)
    out = subprocess.run([sys.executable, "-c", block], env=child_env(), capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout == "[[0, 1, 2, 7], [3, 4, 5, 6]]\nNone\n"
