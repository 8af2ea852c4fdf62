"""A convenience builder for emitting IR instructions into basic blocks."""

from __future__ import annotations

from repro.frontend.source import SourceSpan
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (
    Alloca,
    BinOp,
    Branch,
    Call,
    Cast,
    Copy,
    Jump,
    Load,
    RegionEnter,
    RegionExit,
    Ret,
    Store,
    UnOp,
    result_type_of_binop,
)
from repro.ir.types import INT, ArrayType, ScalarType, Type
from repro.ir.values import Constant, Register, Value


class IRBuilder:
    """Emits instructions at the end of a current block.

    All ``emit_*`` helpers create the result register (when the instruction
    produces one), append the instruction, and return the result value.
    """

    def __init__(self, function: Function):
        self.function = function
        self.block: BasicBlock | None = None

    def set_block(self, block: BasicBlock | None) -> None:
        self.block = block

    @property
    def current(self) -> BasicBlock:
        if self.block is None:
            raise ValueError("no insertion block set")
        return self.block

    @property
    def is_terminated(self) -> bool:
        """True if there is no live insertion point (block done or unset)."""
        return self.block is None or self.block.is_terminated

    # ------------------------------------------------------------------
    # Instruction emitters
    # ------------------------------------------------------------------

    def binop(self, op: str, lhs: Value, rhs: Value, span: SourceSpan) -> Register:
        result_type = result_type_of_binop(op, lhs.type, rhs.type)
        result = self.function.new_register(result_type)
        self.current.append(BinOp(span, op=op, lhs=lhs, rhs=rhs, result=result))
        return result

    def unop(self, op: str, operand: Value, span: SourceSpan) -> Register:
        result_type = INT if op == "!" else operand.type
        result = self.function.new_register(result_type)
        self.current.append(UnOp(span, op=op, operand=operand, result=result))
        return result

    def copy(self, operand: Value, dest: Register, span: SourceSpan) -> Register:
        self.current.append(Copy(span, operand=operand, result=dest))
        return dest

    def cast(self, target: ScalarType, operand: Value, span: SourceSpan) -> Value:
        if operand.type == target:
            return operand
        if isinstance(operand, Constant):
            value = int(operand.value) if target is INT else float(operand.value)
            return Constant(value, target)
        result = self.function.new_register(target)
        self.current.append(Cast(span, target=target, operand=operand, result=result))
        return result

    def coerce(self, operand: Value, target: Type, span: SourceSpan) -> Value:
        """Insert a cast if the scalar types differ; arrays pass through."""
        if operand.type == target or not isinstance(target, ScalarType):
            return operand
        return self.cast(target, operand, span)

    def load(self, mem: Value, index: Value | None, span: SourceSpan) -> Register:
        element = mem.type.element if isinstance(mem.type, ArrayType) else mem.type
        result = self.function.new_register(element)
        self.current.append(Load(span, mem=mem, index=index, result=result))
        return result

    def store(self, mem: Value, index: Value | None, value: Value, span: SourceSpan) -> None:
        self.current.append(Store(span, mem=mem, index=index, value=value))

    def call(
        self,
        callee: str,
        args: list[Value],
        return_type: Type,
        span: SourceSpan,
        is_builtin: bool = False,
    ) -> Register | None:
        result = None
        if isinstance(return_type, ScalarType) and not return_type.is_void:
            result = self.function.new_register(return_type)
        self.current.append(
            Call(span, callee=callee, args=args, result=result, is_builtin=is_builtin)
        )
        return result

    def alloca(self, array_type: ArrayType, name: str, span: SourceSpan) -> Register:
        result = self.function.new_register(array_type, name=name)
        self.current.append(Alloca(span, array_type=array_type, result=result))
        return result

    def region_enter(self, region_id: int, span: SourceSpan) -> None:
        self.current.append(RegionEnter(span, region_id=region_id))

    def region_exit(self, region_id: int, span: SourceSpan) -> None:
        self.current.append(RegionExit(span, region_id=region_id))

    # ------------------------------------------------------------------
    # Terminators
    # ------------------------------------------------------------------

    def jump(self, target: BasicBlock, span: SourceSpan) -> None:
        self.current.terminate(Jump(span, target=target))
        self.block = None

    def branch(
        self, cond: Value, then_block: BasicBlock, else_block: BasicBlock, span: SourceSpan
    ) -> None:
        self.current.terminate(
            Branch(span, cond=cond, then_block=then_block, else_block=else_block)
        )
        self.block = None

    def ret(self, value: Value | None, span: SourceSpan) -> None:
        self.current.terminate(Ret(span, value=value))
        self.block = None
