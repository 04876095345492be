#include "core/fu_pool.hh"

#include "base/logging.hh"

namespace smtavf
{

FuType
fuTypeFor(OpClass op)
{
    switch (op) {
      case OpClass::Nop:
        return FuType::None;
      case OpClass::IntAlu:
      case OpClass::BranchCond:
      case OpClass::BranchUncond:
      case OpClass::Call:
      case OpClass::Return:
        return FuType::IntAlu;
      case OpClass::IntMult:
      case OpClass::IntDiv:
        return FuType::IntMulDiv;
      case OpClass::FpAlu:
        return FuType::FpAlu;
      case OpClass::FpMult:
      case OpClass::FpDiv:
        return FuType::FpMulDiv;
      case OpClass::Load:
      case OpClass::Store:
        return FuType::MemPort;
      default:
        SMTAVF_PANIC("no FU class for op");
    }
}

std::uint32_t
execLatency(OpClass op)
{
    switch (op) {
      case OpClass::Nop:
      case OpClass::IntAlu:
      case OpClass::BranchCond:
      case OpClass::BranchUncond:
      case OpClass::Call:
      case OpClass::Return:
      case OpClass::Load:  // address generation; memory time is added
      case OpClass::Store: // address generation
        return 1;
      case OpClass::IntMult:
        return 3;
      case OpClass::IntDiv:
        return 20;
      case OpClass::FpAlu:
        return 2;
      case OpClass::FpMult:
        return 4;
      case OpClass::FpDiv:
        return 12;
      default:
        SMTAVF_PANIC("no latency for op");
    }
}

std::uint32_t
fuOccupancy(OpClass op)
{
    switch (op) {
      case OpClass::IntDiv:
      case OpClass::FpDiv:
        return execLatency(op); // dividers are not pipelined
      default:
        return 1;
    }
}

FuPool::FuPool(const FuConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.total() == 0)
        SMTAVF_FATAL("empty function-unit pool");
    busyUntil_[static_cast<std::size_t>(FuType::IntAlu)]
        .assign(cfg_.intAlu, 0);
    busyUntil_[static_cast<std::size_t>(FuType::IntMulDiv)]
        .assign(cfg_.intMulDiv, 0);
    busyUntil_[static_cast<std::size_t>(FuType::MemPort)]
        .assign(cfg_.memPorts, 0);
    busyUntil_[static_cast<std::size_t>(FuType::FpAlu)]
        .assign(cfg_.fpAlu, 0);
    busyUntil_[static_cast<std::size_t>(FuType::FpMulDiv)]
        .assign(cfg_.fpMulDiv, 0);
}

bool
FuPool::acquire(FuType type, Cycle now, std::uint32_t occupancy)
{
    if (type == FuType::None)
        return true;
    auto &units = busyUntil_[static_cast<std::size_t>(type)];
    for (auto &busy : units) {
        if (busy <= now) {
            busy = now + occupancy;
            return true;
        }
    }
    return false;
}

} // namespace smtavf
