"""Classic per-function dataflow: reaching definitions and def-use chains.

The IR is deliberately *not* SSA — lowering gives every source variable one
virtual register and assignments are ``copy`` instructions — so the
dependence classifier needs honest iterative dataflow to know which write
of a register a given read can observe. This module provides:

* :class:`ReachingDefinitions` — the textbook gen/kill fixpoint over the
  CFG, exposing per-block reach-in sets and use-def chains;
* :func:`upward_exposed_registers` — the registers a natural loop may read
  *before* writing them in an iteration, i.e. exactly the candidates for a
  loop-carried scalar dependence flowing around the back edge.

Function parameters are modeled as definitions at the entry block (a
synthetic :class:`Definition` with ``instr=None``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.cfg import predecessor_map, reverse_postorder
from repro.analysis.loops import Loop
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.values import Register


@dataclass(frozen=True)
class Definition:
    """One write of a register: an instruction result, or a parameter
    (``instr is None``, defined at function entry)."""

    register: Register
    block: BasicBlock | None
    instr: Instruction | None

    @property
    def is_parameter(self) -> bool:
        return self.instr is None

    def __repr__(self) -> str:
        where = "param" if self.is_parameter else self.instr.opcode
        return f"<def {self.register!r} @ {where}>"


def _register_uses(owner) -> list[Register]:
    """Register operands of an instruction or terminator."""
    return [op for op in owner.operands if isinstance(op, Register)]


class ReachingDefinitions:
    """Reaching definitions + def-use chains for one function."""

    def __init__(self, function: Function):
        self.function = function
        #: every definition of each register, in layout order
        self.defs_of: dict[Register, list[Definition]] = {}
        #: definitions reaching the *top* of each block
        self.reach_in: dict[BasicBlock, frozenset[Definition]] = {}
        #: (instruction or terminator) -> {register -> reaching defs}
        self._use_defs: dict[int, dict[Register, frozenset[Definition]]] = {}
        #: Definition -> instructions/terminators that may observe it
        self.uses_of: dict[Definition, list] = {}
        self._compute()

    # ------------------------------------------------------------------

    def _compute(self) -> None:
        function = self.function
        entry = function.entry

        param_defs = [
            Definition(param, entry, None) for param in function.params
        ]
        for definition in param_defs:
            self.defs_of.setdefault(definition.register, []).append(definition)

        block_defs: dict[BasicBlock, list[Definition]] = {}
        #: id(instruction) -> the definition it makes
        def_at: dict[int, Definition] = {}
        for block in function.blocks:
            defs: list[Definition] = []
            for instr in block.instructions:
                if instr.result is not None:
                    definition = Definition(instr.result, block, instr)
                    defs.append(definition)
                    def_at[id(instr)] = definition
                    self.defs_of.setdefault(instr.result, []).append(
                        definition
                    )
            block_defs[block] = defs

        # gen: last def of each register in the block; kill: all other defs
        # of registers the block writes.
        gen: dict[BasicBlock, frozenset[Definition]] = {}
        kill: dict[BasicBlock, frozenset[Definition]] = {}
        for block in function.blocks:
            last: dict[Register, Definition] = {}
            for definition in block_defs[block]:
                last[definition.register] = definition
            gen[block] = frozenset(last.values())
            killed: set[Definition] = set()
            for register in last:
                killed.update(self.defs_of[register])
            kill[block] = frozenset(killed - gen[block])

        preds = predecessor_map(function)
        order = reverse_postorder(function)
        reach_in: dict[BasicBlock, frozenset[Definition]] = {
            block: frozenset() for block in order
        }
        reach_in[entry] = frozenset(param_defs)
        reach_out: dict[BasicBlock, frozenset[Definition]] = {
            block: frozenset() for block in order
        }

        changed = True
        while changed:
            changed = False
            for block in order:
                incoming: set[Definition] = set(
                    param_defs if block is entry else ()
                )
                for pred in preds.get(block, []):
                    incoming.update(reach_out[pred])
                frozen_in = frozenset(incoming)
                out = frozenset((frozen_in - kill[block]) | gen[block])
                if frozen_in != reach_in[block] or out != reach_out[block]:
                    reach_in[block] = frozen_in
                    reach_out[block] = out
                    changed = True
        self.reach_in = reach_in

        # One forward walk per block builds the use-def chains.
        for block in order:
            live: dict[Register, set[Definition]] = {}
            for definition in reach_in[block]:
                live.setdefault(definition.register, set()).add(definition)
            for owner in [*block.instructions, block.terminator]:
                if owner is None:
                    continue
                used = _register_uses(owner)
                if used:
                    self._use_defs[id(owner)] = {
                        register: frozenset(live.get(register, ()))
                        for register in used
                    }
                    for register in used:
                        for definition in live.get(register, ()):
                            self.uses_of.setdefault(definition, []).append(
                                owner
                            )
                result = getattr(owner, "result", None)
                if result is not None:
                    live[result] = {def_at[id(owner)]}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def reaching(self, owner, register: Register) -> frozenset[Definition]:
        """Definitions of ``register`` that may reach a use at ``owner``
        (an instruction or terminator that actually uses it)."""
        return self._use_defs.get(id(owner), {}).get(register, frozenset())

    def reaching_at_block(
        self, block: BasicBlock, register: Register
    ) -> frozenset[Definition]:
        """Definitions of ``register`` reaching the top of ``block``."""
        return frozenset(
            d for d in self.reach_in.get(block, frozenset())
            if d.register is register
        )

    def external_reaching(
        self, loop: Loop, register: Register
    ) -> frozenset[Definition]:
        """Definitions of ``register`` from *outside* ``loop`` that reach
        the loop header — the values the first iteration can observe."""
        return frozenset(
            d
            for d in self.reaching_at_block(loop.header, register)
            if d.block not in loop.blocks or d.is_parameter
        )


def upward_exposed_registers(loop: Loop) -> set[Register]:
    """Registers some path from the loop header may *read before writing*.

    A register written inside the loop that is also upward-exposed reads
    the previous iteration's value around the back edge — the scalar
    loop-carried candidates. Computed as a backward union fixpoint over the
    loop's own blocks: ``exposed(B) = local_ue(B) ∪ (⋃ exposed(succ∩loop)
    − defs(B))``.
    """
    local_ue: dict[BasicBlock, set[Register]] = {}
    defs: dict[BasicBlock, set[Register]] = {}
    for block in loop.blocks:
        written: set[Register] = set()
        exposed: set[Register] = set()
        for owner in [*block.instructions, block.terminator]:
            if owner is None:
                continue
            for register in _register_uses(owner):
                if register not in written:
                    exposed.add(register)
            result = getattr(owner, "result", None)
            if result is not None:
                written.add(result)
        local_ue[block] = exposed
        defs[block] = written

    exposed_at: dict[BasicBlock, set[Register]] = {
        block: set(local_ue[block]) for block in loop.blocks
    }
    changed = True
    while changed:
        changed = False
        for block in loop.blocks:
            incoming: set[Register] = set()
            for successor in block.successors:
                if successor in loop.blocks:
                    incoming.update(exposed_at[successor])
            combined = local_ue[block] | (incoming - defs[block])
            if combined != exposed_at[block]:
                exposed_at[block] = combined
                changed = True
    return exposed_at[loop.header]


def definitions_in_loop(
    rd: ReachingDefinitions, loop: Loop
) -> dict[Register, list[Definition]]:
    """Registers written inside ``loop``, with their in-loop definitions."""
    out: dict[Register, list[Definition]] = {}
    for register, definitions in rd.defs_of.items():
        inside = [
            d for d in definitions
            if not d.is_parameter and d.block in loop.blocks
        ]
        if inside:
            out[register] = inside
    return out
