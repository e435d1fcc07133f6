import gc
import inspect
import weakref

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="run the long enumerations (S7 census, full n=6 consistency)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip = pytest.mark.skip(reason="needs --run-slow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def _cached_systems():
    """A callable giving the systems `coxeter_system` has built so far. The
    cache gains one only on a miss, so the heap is searched again only
    after new misses."""
    from coxsph.coxeter import CoxeterSystem, coxeter_system

    found, misses_seen = weakref.WeakSet(), [-1]

    def systems():
        misses = coxeter_system.cache_info().misses
        if misses != misses_seen[0]:
            misses_seen[0] = misses
            # instances of a class defined in Python refer to their class,
            # so the referrers of the system classes hold every live system
            classes = (CoxeterSystem, *CoxeterSystem.__subclasses__())
            found.update(
                s for s in gc.get_referrers(*classes) if isinstance(s, CoxeterSystem)
            )
        return list(found)

    return systems


@pytest.fixture(autouse=True)
def _no_shadowed_system_methods(_cached_systems):
    """Fail a test that leaves a method of a cached Coxeter system shadowed
    in the instance's `__dict__`. `monkeypatch.setattr(system, name, ...)`
    does that: undoing it stores the bound method on the instance, so a
    later class-level patch never reaches that system, and the systems
    `coxeter_system` caches live for the whole session. Patch a method of
    one system with `monkeypatch.setitem(vars(system), name, ...)`, whose
    undo deletes the entry. The entries found are deleted, so only the
    test that left them fails."""
    yield
    for system in _cached_systems():
        shadowed = sorted(
            name for name in vars(system)
            if inspect.isfunction(getattr(type(system), name, None))
        )
        for name in shadowed:
            del vars(system)[name]
        if shadowed:
            pytest.fail(
                f"{system.cartan_type} keeps {', '.join(shadowed)} in its "
                "instance dict; patch a system's methods with "
                "monkeypatch.setitem(vars(system), name, ...)",
                pytrace=False,
            )
