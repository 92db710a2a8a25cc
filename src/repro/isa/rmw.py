"""The word-level closed form of the paper's ``update`` instruction.

:func:`update_run` is the one definition both users share: the ISA
interpreter's ``update`` (:func:`repro.isa.machine.apply_update`) and
the throughput simulator's ordering boards
(:mod:`repro.firmware.ordering`), so firmware and hardware cannot drift
apart.  It imports nothing, so the ordering boards load it without the
assembler or the interpreter.
"""


def update_run(word: int, bit: int) -> int:
    """Length of the run of consecutive set bits of ``word`` that starts
    at bit ``bit``: what ``update`` harvests from one word.

    Closed form: with ``x = word >> bit``, the lowest clear bit of ``x``
    is ``~x & (x + 1)``, and its index is the run's length.  A 32-bit
    ``word`` gives at most ``32 - bit``.
    """
    x = word >> bit
    return (~x & (x + 1)).bit_length() - 1
