/**
 * @file
 * Unit tests for the statistics package.
 */

#include <gtest/gtest.h>

#include "base/stats.hh"
#include "test_util.hh"

namespace smtavf
{
namespace
{

TEST(StatGroupTest, SetGetHas)
{
    StatGroup g;
    EXPECT_FALSE(g.has("x"));
    g.set("x", 1.5);
    EXPECT_TRUE(g.has("x"));
    EXPECT_DOUBLE_EQ(g.get("x"), 1.5);
    g.set("x", 2.5); // overwrite
    EXPECT_DOUBLE_EQ(g.get("x"), 2.5);
}

TEST(StatGroupTest, UnknownNameIsFatal)
{
    ThrowGuard guard;
    StatGroup g;
    EXPECT_THROW(g.get("missing"), SimError);
}

TEST(StatGroupTest, AllIsSortedByName)
{
    StatGroup g;
    g.set("b", 2);
    g.set("a", 1);
    auto it = g.all().begin();
    EXPECT_EQ(it->first, "a");
    ++it;
    EXPECT_EQ(it->first, "b");
}

} // namespace
} // namespace smtavf
