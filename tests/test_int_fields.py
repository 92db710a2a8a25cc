"""Every ``int`` field of the config and run specs is checked when the
spec is built: a fractional (or NaN, or float) count, size, seed or
picosecond delay is rejected with a message naming the field, instead of
failing mid-run or silently skewing a result."""

import dataclasses
import math

import pytest

from repro.exp.spec import RunSpec, WorkloadSpec
from repro.fabric.spec import FabricSpec, RpcFlowSpec, StreamFlowSpec
from repro.fabric.topology import TopologySpec
from repro.faults import FaultPlan
from repro.host.rss import RssSpec
from repro.nic.config import NicConfig
from repro.qos.red import RedSpec
from repro.qos.spec import QosSpec, TrafficClassSpec
from repro.units import check_int_fields


def _valid_specs():
    qos = QosSpec.mixed_criticality(pause=True)
    return [
        NicConfig(),
        WorkloadSpec(),
        RssSpec(rings=4),
        FaultPlan(seed=3, rx_fcs_rate=0.01),
        FabricSpec.rpc_pair(seed=1),
        RpcFlowSpec(),
        StreamFlowSpec(),
        next(tc for tc in qos.classes if tc.red is not None and tc.pause_xoff_frames),
        RedSpec(),
        qos,
        TopologySpec.leaf_spine(spines=2),
    ]


def _int_fields():
    for spec in _valid_specs():
        for f in dataclasses.fields(spec):
            if f.type in ("int", int):
                yield pytest.param(spec, f.name, id=f"{type(spec).__name__}.{f.name}")


INT_FIELDS = list(_int_fields())


def test_every_spec_class_has_int_fields_checked():
    classes = {param.values[0].__class__ for param in INT_FIELDS}
    assert len(classes) == 11
    assert len(INT_FIELDS) == 65


@pytest.mark.parametrize("spec, name", INT_FIELDS)
def test_fractional_int_field_rejected(spec, name):
    value = getattr(spec, name) + 0.5
    with pytest.raises(ValueError, match=rf"\.{name} must be an integer"):
        dataclasses.replace(spec, **{name: value})


@pytest.mark.parametrize("value", [1.0, math.nan, math.inf, "1"])
def test_whole_floats_nan_and_strings_rejected(value):
    with pytest.raises(ValueError, match=r"FaultPlan\.seed must be an integer"):
        FaultPlan(seed=value)


def test_valid_specs_unchanged():
    for spec in _valid_specs():
        check_int_fields(spec)
        assert dataclasses.replace(spec) == spec


def test_run_spec_rejects_a_fractional_nested_count():
    with pytest.raises(ValueError, match=r"NicConfig\.cores must be an integer"):
        RunSpec(config=NicConfig(cores=6.5))
