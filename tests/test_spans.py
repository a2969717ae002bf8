"""perfbench's tracer, loaded by its path: `Tracer.install` finds every
traced name where lethargy binds it, tags each `best_approx` span with the
answer's status, and `uninstall` restores every attribute it replaced."""

from by_path import load_by_path
from lethargy import analyze, solve
from lethargy.scheme import build_scheme

spans = load_by_path("perfbench/spans.py")


def bindings() -> dict:
    """(module, name) -> object, for every traced name a lethargy module binds."""
    names = {attr for _, attr, _ in spans.TARGETS} | {"linprog"}
    return {(mod.__name__, name): getattr(mod, name)
            for mod in spans.MODULES for name in names if hasattr(mod, name)}


def test_install_wraps_every_target_and_uninstall_restores_it():
    before = bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = bindings()
        for home, attr, _ in spans.TARGETS:
            assert during[home.__name__, attr] is not before[home.__name__, attr], attr
        assert solve.linprog is not before["lethargy.solve", "linprog"]
        analyze.density_lower_bound(build_scheme("interleaved-c0"), 3)
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    tags = [tag for name, *_, tag in tracer.spans if name == "solve.best_approx"]
    assert tags and all(tag == ("c0", "exact") for tag in tags)
    assert spans.layer_metrics(tracer.spans, 1, 0)["solve.exact_ratio"] == (1.0, "ratio")
