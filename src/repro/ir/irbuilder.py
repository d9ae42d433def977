"""The IRBuilder (paper §1.3).

Offers convenience functions to create any instruction, inserts them after
the previously inserted instruction, and simplifies expressions on the fly
— constant folding "avoids creating instructions that would later be
optimized away anyway".  The OpenMPIRBuilder (:mod:`repro.ompirbuilder`)
builds on top of it.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.ir.instructions import (
    AllocaInst,
    BinaryInst,
    BinOp,
    BranchInst,
    CallInst,
    CastInst,
    CastOp,
    CondBranchInst,
    FCmpInst,
    FCmpPred,
    GEPInst,
    ICmpInst,
    ICmpPred,
    Instruction,
    LoadInst,
    PhiInst,
    ReturnInst,
    SelectInst,
    StoreInst,
    SwitchInst,
    UnreachableInst,
)
from repro.ir.module import BasicBlock, Function, Module
from repro.ir.types import (
    FloatType,
    FunctionType,
    IntType,
    IRType,
    i1,
    ptr,
    void_t,
)
from repro.ir.values import (
    Constant,
    ConstantFP,
    ConstantInt,
    UndefValue,
    Value,
)


class InsertPoint:
    """A (block, index) position; index == len(instructions) is 'end'."""

    def __init__(self, block: BasicBlock | None, index: int = -1) -> None:
        self.block = block
        self.index = index

    @classmethod
    def at_end(cls, block: BasicBlock) -> "InsertPoint":
        return cls(block, len(block.instructions))


class IRBuilder:
    def __init__(self, module: Module) -> None:
        self.module = module
        self._block: BasicBlock | None = None
        self._index = 0
        #: optional hook invoked on every inserted instruction (clang's
        #: IRBuilder "offers a callback interface that can make
        #: modifications on just inserted instructions")
        self.insertion_callback: Optional[
            Callable[[Instruction], None]
        ] = None
        self.folding_enabled = True

    # ==================================================================
    # Insertion point management
    # ==================================================================
    def set_insert_point(
        self, block: BasicBlock, index: int | None = None
    ) -> None:
        self._block = block
        self._index = (
            len(block.instructions) if index is None else index
        )

    def set_insert_point_before(self, inst: Instruction) -> None:
        assert inst.parent is not None
        self._block = inst.parent
        self._index = inst.parent.instructions.index(inst)

    def save_ip(self) -> InsertPoint:
        return InsertPoint(self._block, self._index)

    def restore_ip(self, ip: InsertPoint) -> None:
        self._block = ip.block
        self._index = ip.index

    @property
    def insert_block(self) -> BasicBlock | None:
        return self._block

    @property
    def current_function(self) -> Function | None:
        return self._block.parent if self._block is not None else None

    def _insert(self, inst: Instruction) -> Instruction:
        assert self._block is not None, "no insertion point set"
        name_base = inst.name
        if name_base and self._block.parent is not None:
            inst.name = self._block.parent.unique_name(name_base)
        self._block.insert(self._index, inst)
        self._index += 1
        if self.insertion_callback is not None:
            self.insertion_callback(inst)
        return inst

    # ==================================================================
    # Constants
    # ==================================================================
    def const_int(self, type: IntType, value: int) -> ConstantInt:
        return ConstantInt(type, value)

    def const_fp(self, type: FloatType, value: float) -> ConstantFP:
        return ConstantFP(type, value)

    def undef(self, type: IRType) -> UndefValue:
        return UndefValue(type)

    def true(self) -> ConstantInt:
        return ConstantInt(i1, 1)

    def false(self) -> ConstantInt:
        return ConstantInt(i1, 0)

    # ==================================================================
    # Arithmetic with on-the-fly folding
    # ==================================================================
    def binop(
        self, op: BinOp, lhs: Value, rhs: Value, name: str = ""
    ) -> Value:
        folded = self._fold_binop(op, lhs, rhs)
        if folded is not None:
            return folded
        return self._insert(BinaryInst(op, lhs, rhs, name or op.value))

    def _fold_binop(
        self, op: BinOp, lhs: Value, rhs: Value
    ) -> Value | None:
        if not self.folding_enabled:
            return None
        # Constant-constant folding.
        if isinstance(lhs, ConstantInt) and isinstance(rhs, ConstantInt):
            ty = lhs.type
            a, b = lhs.value, rhs.value
            sa, sb = lhs.signed_value, rhs.signed_value
            try:
                result = {
                    BinOp.ADD: lambda: a + b,
                    BinOp.SUB: lambda: a - b,
                    BinOp.MUL: lambda: a * b,
                    BinOp.AND: lambda: a & b,
                    BinOp.OR: lambda: a | b,
                    BinOp.XOR: lambda: a ^ b,
                    BinOp.SHL: lambda: a << (b % ty.bits),
                    BinOp.LSHR: lambda: a >> (b % ty.bits),
                    BinOp.ASHR: lambda: sa >> (b % ty.bits),
                    BinOp.UDIV: lambda: a // b if b else None,
                    BinOp.UREM: lambda: a % b if b else None,
                    BinOp.SDIV: lambda: _sdiv(sa, sb) if b else None,
                    BinOp.SREM: lambda: _srem(sa, sb) if b else None,
                }[op]()
            except KeyError:
                return None
            if result is None:
                return None
            return ConstantInt(ty, result)
        if isinstance(lhs, ConstantFP) and isinstance(rhs, ConstantFP):
            a, b = lhs.value, rhs.value
            table = {
                BinOp.FADD: lambda: a + b,
                BinOp.FSUB: lambda: a - b,
                BinOp.FMUL: lambda: a * b,
                BinOp.FDIV: lambda: a / b if b else None,
            }
            fn = table.get(op)
            if fn is not None:
                result = fn()
                if result is not None:
                    return ConstantFP(lhs.type, result)
            return None
        # Algebraic identities.
        if isinstance(rhs, ConstantInt):
            if rhs.value == 0 and op in (
                BinOp.ADD,
                BinOp.SUB,
                BinOp.OR,
                BinOp.XOR,
                BinOp.SHL,
                BinOp.LSHR,
                BinOp.ASHR,
            ):
                return lhs
            if rhs.value == 1 and op in (
                BinOp.MUL,
                BinOp.SDIV,
                BinOp.UDIV,
            ):
                return lhs
            if rhs.value == 0 and op == BinOp.MUL:
                return rhs
        if isinstance(lhs, ConstantInt):
            if lhs.value == 0 and op in (BinOp.ADD, BinOp.OR, BinOp.XOR):
                return rhs
            if lhs.value == 1 and op == BinOp.MUL:
                return rhs
            if lhs.value == 0 and op == BinOp.MUL:
                return lhs
        return None

    # Shorthands ---------------------------------------------------------
    def add(self, lhs: Value, rhs: Value, name: str = "add") -> Value:
        return self.binop(BinOp.ADD, lhs, rhs, name)

    def sub(self, lhs: Value, rhs: Value, name: str = "sub") -> Value:
        return self.binop(BinOp.SUB, lhs, rhs, name)

    def mul(self, lhs: Value, rhs: Value, name: str = "mul") -> Value:
        return self.binop(BinOp.MUL, lhs, rhs, name)

    def udiv(self, lhs: Value, rhs: Value, name: str = "udiv") -> Value:
        return self.binop(BinOp.UDIV, lhs, rhs, name)

    def sdiv(self, lhs: Value, rhs: Value, name: str = "sdiv") -> Value:
        return self.binop(BinOp.SDIV, lhs, rhs, name)

    def icmp(
        self, pred: ICmpPred, lhs: Value, rhs: Value, name: str = "cmp"
    ) -> Value:
        if (
            self.folding_enabled
            and isinstance(lhs, ConstantInt)
            and isinstance(rhs, ConstantInt)
        ):
            a, b = (
                (lhs.signed_value, rhs.signed_value)
                if pred.is_signed
                else (lhs.value, rhs.value)
            )
            result = {
                ICmpPred.EQ: a == b,
                ICmpPred.NE: a != b,
                ICmpPred.SLT: a < b,
                ICmpPred.SLE: a <= b,
                ICmpPred.SGT: a > b,
                ICmpPred.SGE: a >= b,
                ICmpPred.ULT: a < b,
                ICmpPred.ULE: a <= b,
                ICmpPred.UGT: a > b,
                ICmpPred.UGE: a >= b,
            }[pred]
            return ConstantInt(i1, int(result))
        return self._insert(ICmpInst(pred, lhs, rhs, name))

    def fcmp(
        self, pred: FCmpPred, lhs: Value, rhs: Value, name: str = "fcmp"
    ) -> Value:
        return self._insert(FCmpInst(pred, lhs, rhs, name))

    # ==================================================================
    # Casts
    # ==================================================================
    def cast(
        self, op: CastOp, value: Value, to_type: IRType, name: str = ""
    ) -> Value:
        if value.type is to_type and op in (
            CastOp.BITCAST,
            CastOp.TRUNC,
            CastOp.ZEXT,
            CastOp.SEXT,
        ):
            return value
        if self.folding_enabled and isinstance(value, ConstantInt):
            if op == CastOp.TRUNC and isinstance(to_type, IntType):
                return ConstantInt(to_type, value.value)
            if op == CastOp.ZEXT and isinstance(to_type, IntType):
                return ConstantInt(to_type, value.value)
            if op == CastOp.SEXT and isinstance(to_type, IntType):
                return ConstantInt(to_type, value.signed_value)
            if op in (CastOp.SITOFP, CastOp.UITOFP) and isinstance(
                to_type, FloatType
            ):
                src = (
                    value.signed_value
                    if op == CastOp.SITOFP
                    else value.value
                )
                return ConstantFP(to_type, float(src))
        if self.folding_enabled and isinstance(value, ConstantFP):
            if op in (CastOp.FPEXT, CastOp.FPTRUNC) and isinstance(
                to_type, FloatType
            ):
                return ConstantFP(to_type, value.value)
            if op == CastOp.FPTOSI and isinstance(to_type, IntType):
                return ConstantInt(to_type, int(value.value))
        return self._insert(
            CastInst(op, value, to_type, name or op.value)
        )

    def int_cast(
        self, value: Value, to_type: IntType, signed: bool, name: str = ""
    ) -> Value:
        assert isinstance(value.type, IntType)
        if value.type.bits == to_type.bits:
            return value
        if value.type.bits > to_type.bits:
            return self.cast(CastOp.TRUNC, value, to_type, name or "trunc")
        op = CastOp.SEXT if signed else CastOp.ZEXT
        return self.cast(op, value, to_type, name or op.value)

    # ==================================================================
    # Memory
    # ==================================================================
    def alloca(
        self,
        allocated_type: IRType,
        array_size: Value | None = None,
        name: str = "alloca",
    ) -> AllocaInst:
        return self._insert(
            AllocaInst(allocated_type, array_size, name)
        )  # type: ignore[return-value]

    def load(
        self, loaded_type: IRType, pointer: Value, name: str = "load"
    ) -> Value:
        return self._insert(LoadInst(loaded_type, pointer, name))

    def store(self, value: Value, pointer: Value) -> Instruction:
        return self._insert(StoreInst(value, pointer))

    def gep(
        self,
        element_type: IRType,
        pointer: Value,
        indices: Sequence[Value],
        name: str = "gep",
    ) -> Value:
        return self._insert(
            GEPInst(element_type, pointer, indices, name)
        )

    # ==================================================================
    # Control flow
    # ==================================================================
    def br(self, target: BasicBlock) -> BranchInst:
        return self._insert(BranchInst(target))  # type: ignore

    def cond_br(
        self,
        condition: Value,
        true_block: BasicBlock,
        false_block: BasicBlock,
    ) -> Instruction:
        if self.folding_enabled and isinstance(condition, ConstantInt):
            return self.br(
                true_block if condition.value else false_block
            )
        return self._insert(
            CondBranchInst(condition, true_block, false_block)
        )

    def switch(
        self, condition: Value, default: BasicBlock
    ) -> SwitchInst:
        return self._insert(SwitchInst(condition, default))  # type: ignore

    def ret(self, value: Value | None = None) -> Instruction:
        return self._insert(ReturnInst(value))

    def unreachable(self) -> Instruction:
        return self._insert(UnreachableInst())

    # ==================================================================
    # Other
    # ==================================================================
    def phi(self, type: IRType, name: str = "phi") -> PhiInst:
        return self._insert(PhiInst(type, name))  # type: ignore

    def select(
        self,
        condition: Value,
        true_value: Value,
        false_value: Value,
        name: str = "select",
    ) -> Value:
        if self.folding_enabled and isinstance(condition, ConstantInt):
            return true_value if condition.value else false_value
        return self._insert(
            SelectInst(condition, true_value, false_value, name)
        )

    def call(
        self,
        callee: Function | Value,
        args: Sequence[Value],
        name: str = "",
    ) -> Value:
        if isinstance(callee, Function):
            return_type = callee.return_type
        else:
            return_type = void_t
        if name == "" and not return_type.is_void:
            name = "call"
        return self._insert(
            CallInst(callee, args, return_type, name)
        )


def _sdiv(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _srem(a: int, b: int) -> int:
    return a - _sdiv(a, b) * b
