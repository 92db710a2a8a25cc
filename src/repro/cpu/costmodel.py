"""Statistical core-timing model for the event-driven throughput tier.

The cycle-level :class:`~repro.cpu.core.PipelinedCore` charges stalls per
instruction.  Simulating every instruction of every frame at 10 Gb/s is
intractable in Python, so the throughput simulator instead times whole
handler invocations using this model — the *same* charging rules applied
to an operation profile (instruction count, loads, stores, branch mix)
instead of to individual instructions.

The stall categories are exactly Table 3's rows, so the throughput
simulator's IPC breakdown is directly comparable to the paper's.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

#: The five Table 3 terms of one charge, in cycles:
#: ``(execution, imiss, load, conflict, pipeline)``.
CostTerms = Tuple[float, float, float, float, float]

#: Statistics are integers in units of 10**-9 (of an instruction, an
#: access or a cycle).  Integer sums are exact, so a statistic does not
#: depend on the order its charges were summed in.  The unit is fine
#: enough that converting each term once moves a run's smallest reported
#: share (a conflict share near 0.001) by well under 1e-9 relative; at
#: 10**-6 a prototype moved it by ~1e-7.
NANO = 10**9

#: The integer terms of one charge, in :data:`NANO` units, in this order.
#: ``cycles`` is the sum of the five Table 3 terms before it.
STAT_TERMS = (
    "instructions", "loads", "stores",
    "execution", "imiss", "load", "conflict", "pipeline", "cycles",
)


_NO_TERMS = (0,) * len(STAT_TERMS)


def nano_terms(profile, cost: CostTerms) -> Tuple[int, ...]:
    """The :data:`STAT_TERMS` of one charge of ``profile`` whose Table 3
    terms are ``cost``, each float rounded once to :data:`NANO` units."""
    execution, imiss, load, conflict, pipeline = cost
    execution = round(execution * 1e9)
    imiss = round(imiss * 1e9)
    load = round(load * 1e9)
    conflict = round(conflict * 1e9)
    pipeline = round(pipeline * 1e9)
    return (
        round(profile.instructions * 1e9), round(profile.loads * 1e9),
        round(profile.stores * 1e9),
        execution, imiss, load, conflict, pipeline,
        execution + imiss + load + conflict + pipeline,
    )


class ChargeEntry(NamedTuple):
    """One profile's charge at a :class:`ChargeTable`'s wait."""

    #: Cycles: the five Table 3 terms summed in order, as floats.  The
    #: handler timelines are laid out from this.
    total: float
    #: ``loads + stores`` as a float, for the contention window.
    accesses: float
    #: :data:`STAT_TERMS` in :data:`NANO` units, for the statistics.
    terms: Tuple[int, ...]
    #: Charges of this entry per function since the last fold.
    counts: Dict[str, int]


class ChargeSums:
    """Exact statistics of every folded charge, in :data:`NANO` units.

    ``functions[name]`` is ``[instructions, loads, stores, cycles]`` of
    one function; ``run`` is ``[execution, imiss, load, conflict,
    pipeline, accesses]`` over all functions.  The two are summed
    separately, so ``verify_conservation`` can check one against the
    other.  ``spin_ps[name]`` is the lock-spin time a function has
    waited, in picoseconds.
    """

    def __init__(self) -> None:
        self.functions: Dict[str, List[int]] = {}
        self.run: List[int] = [0] * 6
        self.spin_ps: Dict[str, int] = {}

    def add(self, fn_name: str, count: int, terms: Tuple[int, ...]) -> None:
        """Add ``count`` charges of ``terms`` (:data:`STAT_TERMS`) to a function."""
        instructions, loads, stores, execution, imiss, load, conflict, pipeline, cycles = terms
        sums = self.functions.get(fn_name)
        if sums is None:
            sums = self.functions[fn_name] = [0, 0, 0, 0]
        sums[0] += count * instructions
        sums[1] += count * loads
        sums[2] += count * stores
        sums[3] += count * cycles
        run = self.run
        run[0] += count * execution
        run[1] += count * imiss
        run[2] += count * load
        run[3] += count * conflict
        run[4] += count * pipeline
        run[5] += count * (loads + stores)

    def copy(self) -> "ChargeSums":
        other = ChargeSums()
        other.functions = {name: list(sums) for name, sums in self.functions.items()}
        other.run = list(self.run)
        other.spin_ps = dict(self.spin_ps)
        return other


def check_op_counts(instructions: float, loads: float, stores: float) -> None:
    """Reject an operation mix no handler can have.

    Counts must be non-negative, and a non-empty mix cannot issue more
    memory operations than instructions.
    """
    if instructions < 0 or loads < 0 or stores < 0:
        raise ValueError("operation counts must be non-negative")
    if loads + stores > instructions and instructions > 0:
        raise ValueError(
            f"memory operations ({loads + stores}) exceed "
            f"instruction count ({instructions})"
        )


@dataclass(frozen=True)
class OpProfile:
    """Operation mix of one handler invocation (may cover many frames)."""

    instructions: float
    loads: float
    stores: float
    taken_branch_fraction: float = 0.06   # taken branches per instruction
    load_use_fraction: float = 0.50       # paper: "50% of all loads ...
    #                                        cause load-to-use dependences"

    def __post_init__(self) -> None:
        check_op_counts(self.instructions, self.loads, self.stores)

    @property
    def accesses(self) -> float:
        return self.loads + self.stores

    def scaled(self, factor: float) -> "OpProfile":
        """Uniformly scale the counts (e.g., per-frame -> per-batch)."""
        instructions = self.instructions * factor
        loads = self.loads * factor
        stores = self.stores * factor
        check_op_counts(instructions, loads, stores)
        # Every contended lock acquire scales the spin-loop profile, so
        # fill the frozen instance's fields directly: the generated
        # __init__ pays one object.__setattr__ per field and re-runs the
        # checks made just above.
        result = object.__new__(type(self))
        fields = result.__dict__
        fields["instructions"] = instructions
        fields["loads"] = loads
        fields["stores"] = stores
        fields["taken_branch_fraction"] = self.taken_branch_fraction
        fields["load_use_fraction"] = self.load_use_fraction
        return result

    def plus(self, other: "OpProfile") -> "OpProfile":
        total = self.instructions + other.instructions
        if total == 0:
            return self

        def blend(a: float, b: float) -> float:
            return (a * self.instructions + b * other.instructions) / total

        return OpProfile(
            instructions=total,
            loads=self.loads + other.loads,
            stores=self.stores + other.stores,
            taken_branch_fraction=blend(
                self.taken_branch_fraction, other.taken_branch_fraction
            ),
            load_use_fraction=blend(self.load_use_fraction, other.load_use_fraction),
        )


@dataclass
class HandlerCost:
    """Cycle cost of one handler invocation, by Table 3 category."""

    instructions: float
    execution_cycles: float
    imiss_cycles: float
    load_cycles: float
    conflict_cycles: float
    pipeline_cycles: float

    @property
    def total_cycles(self) -> float:
        return (
            self.execution_cycles
            + self.imiss_cycles
            + self.load_cycles
            + self.conflict_cycles
            + self.pipeline_cycles
        )

    def breakdown(self) -> Dict[str, float]:
        total = self.total_cycles
        if total == 0:
            return {}
        return {
            "execution": self.execution_cycles / total,
            "imiss": self.imiss_cycles / total,
            "load": self.load_cycles / total,
            "conflict": self.conflict_cycles / total,
            "pipeline": self.pipeline_cycles / total,
        }


class ContentionModel:
    """Expected bank-conflict wait per scratchpad access.

    The scratchpad is ``banks`` independent single-ported banks; the
    firmware's metadata accesses are spread across them by word
    interleaving, so each bank behaves as a slotted single server with
    utilization rho = accesses_per_cycle / banks.  The expected queueing
    wait of a random access is the discrete M/D/1 waiting time
    rho / (2 * (1 - rho)) slots, which matches the cycle-level model's
    measured conflicts within a few percent at the paper's operating
    point (~1.5 accesses/cycle over 4 banks).
    """

    def __init__(self, banks: int) -> None:
        if banks < 1:
            raise ValueError("need at least one bank")
        self.banks = banks

    def expected_wait(self, accesses_per_cycle: float) -> float:
        if accesses_per_cycle < 0:
            raise ValueError("access rate must be non-negative")
        rho = accesses_per_cycle / self.banks
        if rho >= 1.0:
            # Saturated banks: the wait grows without bound; cap it so
            # the fixed-point iteration in the throughput simulator can
            # back pressure instead of diverging.
            return 25.0
        return rho / (2.0 * (1.0 - rho))


@dataclass
class CoreCostModel:
    """Applies the pipeline charging rules to an :class:`OpProfile`.

    Parameters mirror the cycle-level core:

    * every load stalls 1 cycle (2-cycle scratchpad vs 1-cycle MEM);
    * conflict wait applies to every load, and to the fraction of
      stores that find the 1-deep store buffer still draining
      (``store_buffer_pressure``);
    * 50% of loads are load-use (one extra pipeline stall each);
    * each taken branch annuls one fetch slot;
    * I-cache misses are rare (small firmware footprint) and charged as
      ``imiss_rate`` x ``imiss_penalty`` per instruction.
    """

    imiss_rate: float = 0.00125          # misses per instruction
    imiss_penalty_cycles: float = 8.0    # 128-bit port fill round trip
    store_buffer_pressure: float = 0.5   # fraction of stores exposed to wait
    # Cycles a load stalls beyond its issue slot.  1.0 models the
    # paper's shared banked scratchpad (2-cycle crossbar+bank access vs
    # a 1-cycle MEM stage).  Section 4's design alternative — private
    # per-core scratchpads — would make local loads stall-free but
    # charge "much higher latency to access a remote location"; model
    # it as remote_fraction x (remote_latency - 1).
    load_stall_cycles: float = 1.0

    def cost(self, profile: OpProfile, conflict_wait_per_access: float) -> CostTerms:
        """Cycles of one handler invocation, by Table 3 category.

        Returns plain floats, ``(execution, imiss, load, conflict,
        pipeline)``; the throughput simulator reads them through a
        :class:`ChargeTable`, which calls here once per profile and wait.
        Their sum in that order is the invocation's total, as
        :attr:`HandlerCost.total_cycles` adds them.  ``profile`` may be
        any object with an :class:`OpProfile`'s five attributes.
        """
        if conflict_wait_per_access < 0:
            raise ValueError("conflict wait must be non-negative")
        instructions = profile.instructions
        loads = profile.loads
        return (
            instructions,
            instructions * self.imiss_rate * self.imiss_penalty_cycles,
            loads * self.load_stall_cycles,
            loads * conflict_wait_per_access
            + profile.stores * conflict_wait_per_access * self.store_buffer_pressure,
            loads * profile.load_use_fraction
            + instructions * profile.taken_branch_fraction,
        )

    def cycles(self, profile: OpProfile, conflict_wait_per_access: float) -> float:
        terms = self.cost(profile, conflict_wait_per_access)
        return HandlerCost(profile.instructions, *terms).total_cycles


class ChargeTable:
    """Charge terms of every profile charged at the current conflict wait,
    and the exact statistics of every charge made so far.

    A handler invocation's cost depends on its operation profile and on
    the scratchpad conflict wait.  The throughput simulator charges
    thousands of profiles per simulated millisecond but moves the wait
    only once per contention epoch, so the first charge of a profile in
    an epoch computes its terms through :meth:`CoreCostModel.cost` and
    later charges look them up.  :meth:`set_wait` is the only writer of the
    wait and empties the table in the same call, so an entry never
    outlives the wait it was computed at.

    Entries are keyed by object identity.  Hashing a profile by value
    would run a frozen dataclass's generated ``__hash__``, Python code
    costing most of what the table saves.  The table holds a reference
    to every key object until it is emptied, so no other object can
    reuse an id while its entry lives.  :attr:`entries` is emptied in
    place, never rebound, so a caller may keep a reference to it and
    read a hit without calling :meth:`lookup`; only a lookup inserts.

    Statistics are counted, not summed, per charge: the caller bumps the
    entry's :attr:`ChargeEntry.counts` for its function, and
    :meth:`fold` adds count x integer terms into :attr:`sums`.
    :meth:`set_wait` folds before it empties the table; readers fold
    before they read.  A lock spin's terms are linear in its wait, so
    :meth:`spin` sums each function's wait in integer picoseconds, and a
    fold charges the epoch's summed wait through ``cost()`` once.
    """

    def __init__(
        self,
        model: CoreCostModel,
        wait: float,
        spin_profile: Optional[Callable[[int], object]] = None,
    ) -> None:
        """``spin_profile(wait_ps)`` is the profile a core executes
        while it spins ``wait_ps`` picoseconds on a lock; :meth:`spin`
        needs it."""
        self.model = model
        self._wait = wait
        #: Entry per key: ``id(profile)``, or ``(id(profile), factor)``.
        self.entries: Dict[object, ChargeEntry] = {}
        self._keys: List[object] = []
        self._spin_profile = spin_profile
        #: Statistics of every folded charge.
        self.sums = ChargeSums()
        # This epoch's spin wait per function, and the part of it (with
        # its terms) that a fold has already added to the sums.
        self._spin_ps: Dict[str, int] = defaultdict(int)
        self._spins_folded: Dict[str, Tuple[int, Tuple[int, ...]]] = {}
        # A spin's (total, accesses) per wait in ps, at this epoch's wait.
        self._spin_charges: Dict[int, Tuple[float, float]] = {}

    @property
    def wait(self) -> float:
        """Conflict wait per access that every entry is computed at."""
        return self._wait

    def set_wait(self, wait: float) -> None:
        """Fold, then move the conflict wait and empty the table."""
        self.fold()
        self._wait = wait
        self.entries.clear()
        self._keys.clear()
        self._spin_ps.clear()
        self._spins_folded.clear()
        self._spin_charges.clear()

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, profile, factor: Optional[float] = None) -> ChargeEntry:
        """Entry of ``profile``, or of ``profile.scaled(factor)``.

        ``profile`` is an :class:`OpProfile` or any object with its five
        attributes, such as an ordering board's ``OrderingCost``.  The
        first lookup of a scaled charge builds the scaled profile, so
        :meth:`OpProfile.scaled` checks every distinct count once.
        """
        key = id(profile) if factor is None else (id(profile), factor)
        entry = self.entries.get(key)
        if entry is None:
            if factor is None:
                # OpProfiles are checked when built; OrderingCosts are not.
                check_op_counts(profile.instructions, profile.loads, profile.stores)
                entry = self.compute(profile)
            else:
                entry = self.compute(profile.scaled(factor))
            self.entries[key] = entry
            self._keys.append(profile)
        return entry

    def compute(self, profile) -> ChargeEntry:
        """Entry of ``profile`` at the current wait, not kept.

        A checksum profile is built per batch, so its entry would never
        be looked up again: such a transient charge comes straight here,
        and the caller adds its terms to :attr:`sums` at once.
        """
        cost = self.model.cost(profile, self._wait)
        execution, imiss, load, conflict, pipeline = cost
        return ChargeEntry(
            execution + imiss + load + conflict + pipeline,
            profile.loads + profile.stores,
            nano_terms(profile, cost),
            defaultdict(int),
        )

    def spin(self, fn_name: str, wait_ps: int) -> Tuple[float, float]:
        """Charge a lock spin of ``wait_ps`` picoseconds to a function.

        Returns the spin's ``(total, accesses)`` as floats, for the
        handler's timeline and the contention window; its statistics
        wait for the next fold.  Both depend only on the spin's wait and
        the table's, so they are computed once per wait until
        :meth:`set_wait` moves the table's.
        """
        charge = self._spin_charges.get(wait_ps)
        if charge is None:
            profile = self._spin_profile(wait_ps)
            execution, imiss, load, conflict, pipeline = self.model.cost(
                profile, self._wait
            )
            charge = self._spin_charges[wait_ps] = (
                execution + imiss + load + conflict + pipeline,
                profile.loads + profile.stores,
            )
        self._spin_ps[fn_name] += wait_ps
        return charge

    def fold(self) -> None:
        """Add every pending charge to :attr:`sums`.

        Folding changes no entry's terms and no simulated state, and a
        fold within an epoch leaves the sums at the epoch's end as they
        would be without it: counts fold exactly, and each function's
        spin terms are recomputed from the epoch's whole summed wait,
        adding only what the last fold did not.
        """
        sums = self.sums
        for entry in self.entries.values():
            counts = entry.counts
            if counts:
                for fn_name, count in counts.items():
                    sums.add(fn_name, count, entry.terms)
                counts.clear()
        for fn_name, wait_ps in self._spin_ps.items():
            folded_ps, folded = self._spins_folded.get(fn_name, (0, _NO_TERMS))
            if wait_ps == folded_ps:
                continue
            terms = self.compute(self._spin_profile(wait_ps)).terms
            sums.add(fn_name, 1, tuple(now - before for now, before in zip(terms, folded)))
            sums.spin_ps[fn_name] = sums.spin_ps.get(fn_name, 0) + wait_ps - folded_ps
            self._spins_folded[fn_name] = (wait_ps, terms)
