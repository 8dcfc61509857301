"""Pytest root configuration.

Makes the ``src``-layout package importable without an editable install,
which matters in offline environments where ``pip install -e .`` cannot
build an editable wheel (the ``wheel`` package may be absent).  When the
package *is* properly installed this insertion is harmless — the installed
and in-tree sources are identical.
"""

import os
import sys

from hypothesis import settings

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

# ``--hypothesis-profile=ci``: every run explores the same examples and a
# failure prints a blob that reproduces it anywhere — nothing depends on
# the example database a developer's earlier runs left in ``.hypothesis/``.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)
