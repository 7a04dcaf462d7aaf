// SequenceOptions fluent builder: chaining, defaults, and argument validation.

#include <gtest/gtest.h>

#include "core/error.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::skeleton {
namespace {

TEST(Options, DefaultsAreNoOccEightStreams)
{
    const SequenceOptions o;
    EXPECT_EQ(o.occ, Occ::NONE);
    EXPECT_EQ(o.maxStreams, 8);
}

TEST(Options, FluentChainSetsEveryField)
{
    const SequenceOptions o = SequenceOptions().withOcc(Occ::TWO_WAY).withMaxStreams(3);
    EXPECT_EQ(o.occ, Occ::TWO_WAY);
    EXPECT_EQ(o.maxStreams, 3);
}

TEST(Options, ChainOrderIsIrrelevant)
{
    const SequenceOptions a = SequenceOptions().withOcc(Occ::STANDARD).withMaxStreams(2);
    const SequenceOptions b = SequenceOptions().withMaxStreams(2).withOcc(Occ::STANDARD);
    EXPECT_EQ(a.occ, b.occ);
    EXPECT_EQ(a.maxStreams, b.maxStreams);
}

TEST(Options, RejectsNonPositiveMaxStreams)
{
    EXPECT_THROW(SequenceOptions().withMaxStreams(0), NeonException);
    EXPECT_THROW(SequenceOptions().withMaxStreams(-4), NeonException);
    EXPECT_NO_THROW(SequenceOptions().withMaxStreams(1));
}

}  // namespace
}  // namespace neon::skeleton
