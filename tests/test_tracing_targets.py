"""The benchmark tracer's targets name functions that exist.

perfbench/tracing.py wraps package functions by name, and a traced run fails
as soon as one of them is renamed or removed.  Loading it here (the tracing
fixture of conftest.py) turns that into a tier-1 failure instead of a
failure only seen with --trace 1.
"""

import importlib
import sys


def test_every_target_resolves(tracing):
    assert tracing.TARGETS
    for target in tracing.TARGETS:
        home = importlib.import_module(target.module)
        owner, attr = home, target.attr
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(home, cls_name)
            assert attr in owner.__dict__, target.span
        assert callable(getattr(owner, attr)), target.span


def test_install_and_restore(tracing):
    for target in tracing.TARGETS:
        importlib.import_module(target.module)
    linalg, qinfo = sys.modules["entgames.linalg"], sys.modules["entgames.qinfo"]
    before = (linalg.trace_norm, linalg.partial_trace, qinfo.mutual_information)
    with tracing.Tracer():
        assert linalg.trace_norm is not before[0]
        assert qinfo.mutual_information is not before[2]
    assert (linalg.trace_norm, linalg.partial_trace, qinfo.mutual_information) == before
