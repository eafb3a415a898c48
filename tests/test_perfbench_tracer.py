"""The benchmark's tracer patches library names by their current spelling.

`perfbench/tracer.py` wraps functions and methods where callers resolve
them (`engine.validate_matching`, `AuctionMarket.add_buyer`, ...). A moved
or renamed name would otherwise surface only in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_patched_name():
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        patched = list(tracer._restore)
        assert patched
        for owner, attr, original in patched:
            assert getattr(owner, attr).__wrapped__ is original
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
