#include "isa/instr.hh"

namespace smtavf
{

const char *
opClassName(OpClass op)
{
    switch (op) {
      case OpClass::Nop: return "nop";
      case OpClass::IntAlu: return "ialu";
      case OpClass::IntMult: return "imul";
      case OpClass::IntDiv: return "idiv";
      case OpClass::FpAlu: return "falu";
      case OpClass::FpMult: return "fmul";
      case OpClass::FpDiv: return "fdiv";
      case OpClass::Load: return "load";
      case OpClass::Store: return "store";
      case OpClass::BranchCond: return "bcond";
      case OpClass::BranchUncond: return "jump";
      case OpClass::Call: return "call";
      case OpClass::Return: return "ret";
      default: return "?";
    }
}

bool
isControl(OpClass op)
{
    switch (op) {
      case OpClass::BranchCond:
      case OpClass::BranchUncond:
      case OpClass::Call:
      case OpClass::Return:
        return true;
      default:
        return false;
    }
}

bool
isMemRef(OpClass op)
{
    return op == OpClass::Load || op == OpClass::Store;
}

} // namespace smtavf
