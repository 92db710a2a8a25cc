"""The performance ledger's entry points exist in the simulator.

``simbench``'s traced round patches every method and function named in
``simbench.trace.ENTRY_POINTS`` / ``ENTRY_FUNCTIONS`` into a span of its
layer.  A name it cannot find is recorded in ``Tracer.missing`` and
skipped, and the round then charges that layer's time to its caller
without failing.  This test turns such a rename into a failure.
"""

from simbench.trace import ENTRY_POINTS, Tracer


def test_every_ledger_entry_point_is_patched():
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()


def test_uninstall_restores_the_originals():
    import importlib

    tracer = Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    for module_name, class_name, methods, _layer in ENTRY_POINTS:
        owner = getattr(importlib.import_module(module_name), class_name)
        for method in methods:
            assert not hasattr(owner.__dict__[method], "simbench_layer"), (
                f"{class_name}.{method} still patched"
            )


def test_every_callback_attribute_resolves():
    """Each callback the traced round adopts exists on a workload's
    simulator or endpoint.  ``Tracer.attach`` skips an owner or
    attribute it cannot find, so a rename would leave those calls in
    their caller's layer and fail nothing else."""
    from simbench.trace import _CALLABLE_TYPES, CALLBACK_ATTRIBUTES
    from simbench.workloads import WORKLOADS

    resolved = set()
    for workload in WORKLOADS.values():
        simulator = workload.build(1)
        for obj in [simulator] + list(getattr(simulator, "endpoints", ())):
            for owner_name, attribute in CALLBACK_ATTRIBUTES:
                owner = getattr(obj, owner_name, None)
                if type(getattr(owner, attribute, None)) in _CALLABLE_TYPES:
                    resolved.add((owner_name, attribute))
    assert sorted(resolved) == sorted(CALLBACK_ATTRIBUTES)
