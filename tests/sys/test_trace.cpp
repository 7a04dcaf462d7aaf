#include "sys/trace.hpp"

#include <gtest/gtest.h>

namespace neon::sys {

TEST(Trace, DisabledByDefault)
{
    Trace t;
    t.record(0, 0, OpKind::Kernel, "k", 0.0, 1.0);
    EXPECT_TRUE(t.entries().empty());
}

TEST(Trace, RecordsWhenEnabled)
{
    Trace t;
    t.enable(true);
    t.record(0, 0, OpKind::Kernel, "k", 0.0, 1.0);
    t.record(1, 2, OpKind::Transfer, "h", 0.5, 2.0);
    ASSERT_EQ(t.entries().size(), 2u);
    EXPECT_EQ(t.entries()[1].device, 1);
    EXPECT_EQ(t.entries()[1].stream, 2);
    EXPECT_EQ(t.entries()[1].kind, "transfer");
}

TEST(Trace, ClearEmpties)
{
    Trace t;
    t.enable(true);
    t.record(0, 0, OpKind::Kernel, "k", 0.0, 1.0);
    t.clear();
    EXPECT_TRUE(t.entries().empty());
}

TEST(Trace, GanttContainsRowsPerDeviceStream)
{
    Trace t;
    t.enable(true);
    t.record(0, 0, OpKind::Kernel, "map", 0.0, 4.0);
    t.record(0, 1, OpKind::Transfer, "halo", 4.0, 6.0);
    t.record(1, 0, OpKind::Kernel, "map", 0.0, 4.0);
    const auto g = t.gantt(40);
    EXPECT_NE(g.find("dev0/s0"), std::string::npos);
    EXPECT_NE(g.find("dev0/s1"), std::string::npos);
    EXPECT_NE(g.find("dev1/s0"), std::string::npos);
    // Kernel glyph and transfer glyph both present.
    EXPECT_NE(g.find('='), std::string::npos);
    EXPECT_NE(g.find('~'), std::string::npos);
}

TEST(Trace, GanttOnEmptyTrace)
{
    Trace t;
    EXPECT_EQ(t.gantt(), "(empty trace)\n");
}

}  // namespace neon::sys
