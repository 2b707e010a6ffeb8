"""The benchmark's span tracer wraps names bound on fedagm's modules and
classes; every one of them must still exist, or `--trace 1` fails."""

import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_is_bound_on_its_owner():
    spans = load_spans()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in spans.TARGETS
        if attr not in vars(owner)
    ]
    assert missing == []


def test_tracer_installs_and_restores_every_target():
    spans = load_spans()
    originals = [vars(owner)[attr] for owner, attr, _ in spans.TARGETS]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(vars(o)[a] is not f for (o, a, _), f in zip(spans.TARGETS, originals))
    finally:
        tracer.uninstall()
    assert all(vars(o)[a] is f for (o, a, _), f in zip(spans.TARGETS, originals))
