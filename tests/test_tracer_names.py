"""The benchmark tracer's inventory and swarmlink's public callables agree.

`bench/tracer.py` wraps (`SPANS`) or deliberately leaves unwrapped
(`UNWRAPPED`) swarmlink's public callables by name. Deleting or renaming
one of them makes `bench/run.py --trace 1` fail on a missing attribute,
and a public callable added to a traced module without a line there would
go unmeasured; these tests fail first. The tracer file is only read and
executed here, never wrapped around anything.
"""

import importlib
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _read_tracer() -> types.ModuleType:
    module = types.ModuleType("bench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), vars(module))
    return module


def test_every_name_the_tracer_lists_resolves_in_swarmlink():
    tracer = _read_tracer()
    names = sorted(set(tracer.SPANS) | set(tracer.UNWRAPPED))
    assert names, "the tracer lists no names"
    missing = []
    for mod_name, qualname in names:
        obj = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{mod_name}.{qualname}")
    assert missing == []


def test_every_public_callable_of_a_traced_module_is_wrapped_or_listed():
    tracer = _read_tracer()
    declared = set(tracer.SPANS) | set(tracer.UNWRAPPED)
    found = set()
    for mod_name in tracer.TRACED_MODULES:
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod_name}")
        found |= {(mod_name, qualname) for qualname in tracer.public_callables(module)}
    # Private, but wrapped: every handshake message class parses through it.
    found.add(("handshake", "_HandshakeMessage.from_bytes"))
    assert sorted(found - declared) == []
