"""Repository-wide pytest options.

``pytest_addoption`` only takes effect in a conftest that pytest loads at
start-up, which for a plain ``python -m pytest`` from the root is this one.
"""

from __future__ import annotations


def pytest_addoption(parser):
    parser.addoption(
        "--write-results",
        action="store_true",
        default=False,
        help="write the benchmarks' regenerated tables to the committed "
             "benchmarks/results/ instead of a session temp directory",
    )
