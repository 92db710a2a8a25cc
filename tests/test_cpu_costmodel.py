"""Statistical core cost model (macro-tier timing)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import ContentionModel, CoreCostModel, HandlerCost
from repro.cpu.costmodel import ChargeTable, OpProfile
from repro.firmware.ordering import OrderingCost


class TestOpProfile:
    def test_accesses(self):
        profile = OpProfile(instructions=100, loads=20, stores=10)
        assert profile.accesses == 30

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            OpProfile(instructions=-1, loads=0, stores=0)

    def test_memory_ops_cannot_exceed_instructions(self):
        with pytest.raises(ValueError):
            OpProfile(instructions=10, loads=8, stores=8)

    def test_scaled(self):
        profile = OpProfile(instructions=10, loads=2, stores=1)
        doubled = profile.scaled(2)
        assert doubled.instructions == 20
        assert doubled.loads == 4
        assert doubled.taken_branch_fraction == profile.taken_branch_fraction
        assert doubled == OpProfile(instructions=20, loads=4, stores=2)

    def test_scaled_negative_rejected(self):
        with pytest.raises(ValueError):
            OpProfile(10, 2, 1).scaled(-1)

    def test_plus_combines_counts(self):
        a = OpProfile(instructions=10, loads=2, stores=1)
        b = OpProfile(instructions=30, loads=6, stores=3)
        combined = a.plus(b)
        assert combined.instructions == 40
        assert combined.loads == 8

    def test_plus_blends_fractions(self):
        a = OpProfile(instructions=10, loads=0, stores=0, load_use_fraction=0.0)
        b = OpProfile(instructions=30, loads=0, stores=0, load_use_fraction=1.0)
        assert a.plus(b).load_use_fraction == pytest.approx(0.75)

    def test_plus_with_empty(self):
        a = OpProfile(instructions=0, loads=0, stores=0)
        b = OpProfile(instructions=0, loads=0, stores=0)
        assert a.plus(b).instructions == 0


class TestContentionModel:
    def test_no_traffic_no_wait(self):
        assert ContentionModel(4).expected_wait(0.0) == 0.0

    def test_wait_grows_with_load(self):
        model = ContentionModel(4)
        waits = [model.expected_wait(rate) for rate in (0.5, 1.0, 2.0, 3.0)]
        assert waits == sorted(waits)
        assert waits[-1] > waits[0]

    def test_more_banks_less_wait(self):
        rate = 1.5
        assert ContentionModel(8).expected_wait(rate) < ContentionModel(2).expected_wait(rate)

    def test_saturation_capped(self):
        assert ContentionModel(2).expected_wait(10.0) == 25.0

    def test_paper_operating_point(self):
        # ~1.5 accesses/cycle over 4 banks: expected wait ~0.3 cycles,
        # matching Table 3's modest conflict-stall share.
        wait = ContentionModel(4).expected_wait(1.5)
        assert 0.2 < wait < 0.4

    def test_validation(self):
        with pytest.raises(ValueError):
            ContentionModel(0)
        with pytest.raises(ValueError):
            ContentionModel(4).expected_wait(-1)


class TestCoreCostModel:
    def test_pure_alu_cost(self):
        model = CoreCostModel(imiss_rate=0.0)
        profile = OpProfile(
            instructions=100, loads=0, stores=0,
            taken_branch_fraction=0.0, load_use_fraction=0.0,
        )
        assert model.cycles(profile, 0.0) == pytest.approx(100)

    def test_loads_add_stall_each(self):
        model = CoreCostModel(imiss_rate=0.0)
        profile = OpProfile(
            instructions=100, loads=20, stores=0,
            taken_branch_fraction=0.0, load_use_fraction=0.0,
        )
        _execution, _imiss, load, _conflict, _pipeline = model.cost(profile, 0.0)
        assert load == pytest.approx(20)

    def test_load_use_pipeline_charge(self):
        model = CoreCostModel(imiss_rate=0.0)
        profile = OpProfile(
            instructions=100, loads=20, stores=0,
            taken_branch_fraction=0.0, load_use_fraction=0.5,
        )
        _execution, _imiss, _load, _conflict, pipeline = model.cost(profile, 0.0)
        assert pipeline == pytest.approx(10)

    def test_conflict_charge(self):
        model = CoreCostModel(imiss_rate=0.0, store_buffer_pressure=0.5)
        profile = OpProfile(
            instructions=100, loads=10, stores=10,
            taken_branch_fraction=0.0, load_use_fraction=0.0,
        )
        _execution, _imiss, _load, conflict, _pipeline = model.cost(profile, 0.4)
        assert conflict == pytest.approx(10 * 0.4 + 10 * 0.4 * 0.5)

    def test_imiss_charge(self):
        model = CoreCostModel(imiss_rate=0.001, imiss_penalty_cycles=8)
        profile = OpProfile(instructions=1000, loads=0, stores=0,
                            taken_branch_fraction=0.0, load_use_fraction=0.0)
        _execution, imiss, _load, _conflict, _pipeline = model.cost(profile, 0.0)
        assert imiss == pytest.approx(8)

    def test_breakdown_sums_to_one(self):
        model = CoreCostModel()
        profile = OpProfile(instructions=500, loads=80, stores=60)
        cost = HandlerCost(profile.instructions, *model.cost(profile, 0.3))
        assert sum(cost.breakdown().values()) == pytest.approx(1.0)

    def test_negative_wait_rejected(self):
        with pytest.raises(ValueError):
            CoreCostModel().cost(OpProfile(10, 1, 1), -0.1)

    def test_paper_table3_composition(self):
        """Default parameters + the firmware's operation mix should land
        near Table 3: execution ~0.7, load ~0.12-0.15, conflict ~0.05,
        pipeline ~0.1, imiss ~0.01."""
        model = CoreCostModel()
        profile = OpProfile(instructions=1000, loads=167, stores=125)
        cost = HandlerCost(profile.instructions, *model.cost(profile, 0.29))
        breakdown = cost.breakdown()
        assert 0.6 < breakdown["execution"] < 0.8
        assert 0.08 < breakdown["load"] < 0.18
        assert 0.02 < breakdown["conflict"] < 0.09
        assert 0.05 < breakdown["pipeline"] < 0.18
        assert breakdown["imiss"] < 0.02


@st.composite
def _profiles(draw):
    instructions = draw(st.floats(0.0, 2000.0))
    # Halves of in-range shares: loads + stores <= instructions exactly.
    loads = instructions * draw(st.floats(0.0, 1.0)) * 0.5
    stores = instructions * draw(st.floats(0.0, 1.0)) * 0.5
    return OpProfile(
        instructions,
        loads,
        stores,
        taken_branch_fraction=draw(st.floats(0.0, 1.0)),
        load_use_fraction=draw(st.floats(0.0, 1.0)),
    )


def _expected_entry(model, profile, wait):
    """The entry as the simulator charged it before the table: terms
    from ``cost``, total summed in Table 3 order."""
    execution, imiss, load, conflict, pipeline = model.cost(profile, wait)
    return (
        profile.instructions, profile.loads, profile.stores,
        profile.loads + profile.stores,
        execution, imiss, load, conflict, pipeline,
        execution + imiss + load + conflict + pipeline,
    )


class TestChargeTable:
    @settings(max_examples=300, deadline=None)
    @given(
        profile=_profiles(),
        frames=st.integers(0, 64),
        # Whole frames, and the send/receive task's start and finish
        # shares of them, as the handlers scale their profiles.
        share=st.sampled_from((1, 0.55, 1.0 - 0.55)),
        wait=st.floats(0.0, 25.0),
    )
    def test_entry_equals_cost_of_the_scaled_profile(self, profile, frames, share, wait):
        model = CoreCostModel()
        table = ChargeTable(model, wait)
        factor = frames * share
        scaled = _expected_entry(model, profile.scaled(factor), wait)
        plain = _expected_entry(model, profile, wait)
        for _ in range(2):  # the fill, then a hit
            assert table.lookup(profile, factor) == scaled
            assert table.lookup(profile) == plain
        assert len(table) == 2

    def test_moving_the_wait_empties_the_table(self):
        model = CoreCostModel()
        profile = OpProfile(instructions=100, loads=20, stores=10)
        table = ChargeTable(model, 0.1)
        table.lookup(profile, 3)
        table.lookup(profile)
        table.set_wait(0.7)
        assert table.wait == 0.7
        assert len(table) == 0
        assert table.lookup(profile, 3) == _expected_entry(model, profile.scaled(3), 0.7)
        assert table.lookup(profile) == _expected_entry(model, profile, 0.7)

    def test_compute_keeps_nothing(self):
        model = CoreCostModel()
        table = ChargeTable(model, 0.3)
        table.lookup(OpProfile(instructions=10, loads=2, stores=1))
        spin = OpProfile(instructions=4, loads=1, stores=0).scaled(2.917)
        assert table.compute(spin) == _expected_entry(model, spin, 0.3)
        assert len(table) == 1

    def test_keyed_by_identity(self):
        table = ChargeTable(CoreCostModel(), 0.2)
        first = OpProfile(instructions=10, loads=2, stores=1)
        twin = OpProfile(instructions=10, loads=2, stores=1)
        assert first == twin
        assert table.lookup(first) == table.lookup(twin)
        assert len(table) == 2

    def test_ordering_record_counts_checked_on_fill(self):
        # OrderingCost skips check_op_counts when built; charging it
        # through the table must not.
        with pytest.raises(ValueError, match="exceed"):
            ChargeTable(CoreCostModel(), 0.0).lookup(OrderingCost(1.0, 2.0, 3.0))

    def test_negative_wait_rejected_on_fill(self):
        table = ChargeTable(CoreCostModel(), -0.5)
        with pytest.raises(ValueError):
            table.lookup(OpProfile(instructions=10, loads=1, stores=1))
