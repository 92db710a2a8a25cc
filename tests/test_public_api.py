"""Public-API integrity: every ``__all__`` name resolves and the
package surface documented in the README exists."""

import importlib
import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

PACKAGES = [
    "repro",
    "repro.sim",
    "repro.isa",
    "repro.ilp",
    "repro.cpu",
    "repro.mem",
    "repro.assists",
    "repro.host",
    "repro.net",
    "repro.firmware",
    "repro.nic",
    "repro.analysis",
    "repro.obs",
    "repro.faults",
    "repro.check",
    "repro.fabric",
    "repro.qos",
]

#: Modules a throughput or fabric run without a fault plan, an RSS spec,
#: a monitor or an exporter must not load: the micro tier (the ISA
#: beyond the ``update`` closed form, the cycle-level core, the MESI
#: caches, the scratchpad, ``MicroNic``), the armed monitor, and the
#: optional layers.
LEAN_RUN_EXCLUDES = (
    "repro.cpu.core",
    "repro.mem.coherence",
    "repro.mem.scratchpad",
    "repro.nic.controller",
    "repro.check.monitor",
    "repro.faults.injector",
    "repro.faults.plan",
    "repro.host.rss",
    "repro.obs.metrics",
    "repro.obs.perfetto",
    "repro.obs.profiler",
    "repro.obs.progress",
)


def _run_fresh(script: str) -> str:
    """Run ``script`` in a fresh interpreter on this tree's ``src``;
    return its stdout."""
    import repro

    env = dict(os.environ)
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src_dir, env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestPublicApi:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        module = importlib.import_module(package)
        exported = getattr(module, "__all__", [])
        assert set(exported) <= set(dir(module))
        for name in exported:
            assert hasattr(module, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_no_export_shadows_a_submodule(self, package):
        """A package name that is also a submodule's name resolves to
        whichever was bound last: the function before the submodule is
        imported, the module after."""
        module = importlib.import_module(package)
        submodules = {info.name for info in pkgutil.iter_modules(module.__path__)}
        assert sorted(submodules.intersection(getattr(module, "__all__", []))) == []

    def test_check_fuzz_is_the_fuzz_module(self):
        """``from repro.check import fuzz`` gives the submodule in a fresh
        interpreter, as the replay-determinism CI step expects."""
        out = _run_fresh(
            """
            import types

            from repro.check import fuzz as fz

            assert isinstance(fz, types.ModuleType), fz
            print(fz.__name__, callable(fz.fuzz), callable(fz.replay))
            """
        )
        assert out.split() == ["repro.check.fuzz", "True", "True"]

    def test_readme_entry_points_exist(self):
        import repro

        assert callable(repro.ThroughputSimulator)
        assert callable(repro.MicroNic)
        assert callable(repro.NicConfig)
        assert repro.RMW_166MHZ.cores == 6
        assert repro.SOFTWARE_200MHZ.core_frequency_hz == 200e6

    def test_version_is_semver(self):
        import repro

        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)

    @pytest.mark.parametrize("record, values, field", [
        ("repro.mem:SdramRequest", (0, 5, 64, 64, True), "finish_cycle"),
        ("repro.assists:DmaTransfer", (0, 10, 10, 64, False), "complete_ps"),
        ("repro.assists.mac:WireEvent", (1, 0, 10, 10), "wire_end_ps"),
    ])
    def test_hot_path_records_are_immutable(self, record, values, field):
        module, name = record.split(":")
        instance = getattr(importlib.import_module(module), name)(*values)
        with pytest.raises(AttributeError):
            setattr(instance, field, 7)
        with pytest.raises(AttributeError):
            instance.not_a_field = 7
        assert getattr(instance, field) != 7

    def test_cli_entry_point_importable(self):
        from repro.cli import main

        assert callable(main)

    def test_py_typed_marker_present(self):
        from pathlib import Path

        import repro

        package_dir = Path(repro.__file__).parent
        assert (package_dir / "py.typed").exists()

    def test_no_package_requires_missing_dependencies(self):
        """Everything imports with only the declared dependency set."""
        for package in PACKAGES:
            importlib.import_module(package)

    def test_simulators_run_without_numpy(self):
        """The simulator is stdlib-only: building and running both
        simulators never imports numpy.  A fresh interpreter keeps the
        check independent of what other tests (or plugins) loaded."""
        _run_fresh(
            """
            import sys

            import repro.check.verify
            import repro.fabric
            import repro.host.rss
            import repro.nic
            import repro.qos
            from repro.fabric import FabricSimulator, FabricSpec
            from repro.nic import NicConfig, ThroughputSimulator

            config = NicConfig(cores=2, core_frequency_hz=133e6)
            rss = repro.host.rss.RssSpec(rings=2)
            assert ThroughputSimulator(config, 1472, rss=rss).run(
                50e-6, 100e-6
            ).tx_frames > 0
            assert FabricSimulator(config, FabricSpec.rpc_pair()).run(
                50e-6, 100e-6
            ).primary_flow.delivered > 0
            assert "numpy" not in sys.modules, "numpy was imported"
            """
        )

    def test_runs_load_only_the_modules_they_execute(self):
        """A plain throughput or fabric run imports none of the micro
        tier, the armed monitor or the optional layers; a run given a
        fault plan or an RSS spec loads the module it uses."""
        out = _run_fresh(
            """
            import sys

            from repro.fabric import FabricSimulator, FabricSpec
            from repro.nic import NicConfig, ThroughputSimulator

            def loaded():
                print(" ".join(sorted(m for m in sys.modules if m.startswith("repro"))))

            assert ThroughputSimulator(NicConfig(), 1472).run(20e-6, 50e-6).tx_frames > 0
            assert FabricSimulator(NicConfig(), FabricSpec.rpc_pair()).run(
                20e-6, 50e-6
            ).primary_flow.delivered > 0
            loaded()

            from repro.faults import FaultPlan
            from repro.host import RssSpec

            plan = FaultPlan(seed=3, rx_fcs_rate=0.01)
            assert ThroughputSimulator(NicConfig(), 1472, fault_plan=plan).faults
            assert ThroughputSimulator(NicConfig(), 1472, rss=RssSpec(rings=2)).rss_host
            loaded()
            """
        )
        plain, optional = (set(line.split()) for line in out.splitlines())
        assert "repro.nic.throughput" in plain and "repro.fabric.sim" in plain
        isa = sorted(m for m in plain if m.startswith("repro.isa."))
        assert isa == ["repro.isa.rmw"]
        assert sorted(plain.intersection(LEAN_RUN_EXCLUDES)) == []
        assert {"repro.faults.injector", "repro.host.rss"} <= optional

    def test_sweep_engine_loads_the_rss_model_only_for_rss_points(self):
        """Every sweep-based command imports ``repro.exp``; only a point
        with an RSS spec (or an RSS grid) loads the multi-queue host."""
        out = _run_fresh(
            """
            import sys

            import repro.exp
            from repro.exp import Sweep

            print("repro.host.rss" in sys.modules)
            sweep = Sweep.rss_grid("rss", [2])
            print("repro.host.rss" in sys.modules, sweep.specs[1].rss.rings)
            """
        )
        assert out.split() == ["False", "True", "2"]
