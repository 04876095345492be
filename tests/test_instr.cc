/**
 * @file
 * Unit tests for the synthetic ISA helpers and DynInstr flags.
 */

#include <gtest/gtest.h>

#include "avf/structures.hh"
#include "isa/instr.hh"

namespace smtavf
{
namespace
{

TEST(OpClassHelpers, ControlClassification)
{
    EXPECT_TRUE(isControl(OpClass::BranchCond));
    EXPECT_TRUE(isControl(OpClass::BranchUncond));
    EXPECT_TRUE(isControl(OpClass::Call));
    EXPECT_TRUE(isControl(OpClass::Return));
    EXPECT_FALSE(isControl(OpClass::IntAlu));
    EXPECT_FALSE(isControl(OpClass::Load));
    EXPECT_FALSE(isControl(OpClass::Nop));
}

TEST(OpClassHelpers, MemClassification)
{
    EXPECT_TRUE(isMemRef(OpClass::Load));
    EXPECT_TRUE(isMemRef(OpClass::Store));
    EXPECT_FALSE(isMemRef(OpClass::IntAlu));
    EXPECT_FALSE(isMemRef(OpClass::BranchCond));
}

TEST(OpClassHelpers, NamesAreDistinct)
{
    for (std::size_t i = 0; i < numOpClasses; ++i)
        for (std::size_t j = i + 1; j < numOpClasses; ++j)
            EXPECT_STRNE(opClassName(static_cast<OpClass>(i)),
                         opClassName(static_cast<OpClass>(j)));
}

TEST(RegisterNamespace, FpSplit)
{
    EXPECT_FALSE(isFpReg(0));
    EXPECT_FALSE(isFpReg(31));
    EXPECT_TRUE(isFpReg(32));
    EXPECT_TRUE(isFpReg(63));
}

TEST(RegisterNamespace, ZeroRegs)
{
    EXPECT_TRUE(isZeroReg(0));
    EXPECT_TRUE(isZeroReg(numArchIntRegs));
    EXPECT_FALSE(isZeroReg(1));
    EXPECT_FALSE(isZeroReg(numArchIntRegs + 1));
}

TEST(DynInstrTest, WritesRegRespectsZeroSinks)
{
    DynInstr in;
    in.destReg = invalidReg;
    EXPECT_FALSE(in.writesReg());
    in.destReg = 0;
    EXPECT_FALSE(in.writesReg());
    in.destReg = 5;
    EXPECT_TRUE(in.writesReg());
}

TEST(DynInstrTest, NeverAceFlags)
{
    DynInstr in;
    in.op = OpClass::IntAlu;
    EXPECT_FALSE(in.neverAce());
    in.wrongPath = true;
    EXPECT_TRUE(in.neverAce());
    in.wrongPath = false;
    in.squashed = true;
    EXPECT_TRUE(in.neverAce());
    in.squashed = false;
    in.op = OpClass::Nop;
    EXPECT_TRUE(in.neverAce());
}

TEST(DynInstrTest, BranchAndMemShortcuts)
{
    DynInstr in;
    in.op = OpClass::Call;
    EXPECT_TRUE(in.isBranch());
    EXPECT_FALSE(in.isMem());
    in.op = OpClass::Store;
    EXPECT_FALSE(in.isBranch());
    EXPECT_TRUE(in.isMem());
}

TEST(HwStructNames, AllNamed)
{
    for (std::size_t i = 0; i < numHwStructs; ++i)
        EXPECT_STRNE(hwStructName(static_cast<HwStruct>(i)), "?");
}

} // namespace
} // namespace smtavf
