// Seeded-bug battery for the access-contract sanitizer (set/sanitize.hpp,
// analysis/sanitizer.hpp): every violation class fires from a kernel that
// actually commits the sin, with correct container/device attribution, and
// the clean variants of the same shapes produce empty diffs. Exercised
// through the skeleton (withSanitize / validate(Deep)), which is the same
// path NEON_SANITIZE=1 forces.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis_fixture.hpp"

namespace neon::analysis {

using set::Backend;
using set::Container;
using skeleton::SequenceOptions;
using skeleton::Skeleton;
using skeleton::ValidateMode;

namespace {

/// Run `seq` once with sanitizer trampolines and return the access diff.
AnalysisReport sanitizeRun(Rig& rig, std::vector<Container> seq,
                           const std::string& name = "san")
{
    AccessSanitizer::reset();
    Skeleton skl(rig.backend);
    skl.sequence(std::move(seq), SequenceOptions().withName(name).withSanitize());
    skl.run();
    skl.sync();
    return AccessSanitizer::diff();
}

bool hasViolationOn(const AnalysisReport& rep, ViolationKind kind,
                    const std::string& container)
{
    for (const auto& v : rep.violations) {
        if (v.kind == kind && v.containerA == container) {
            return true;
        }
    }
    return false;
}

}  // namespace

class SanitizerTest : public ::testing::Test
{
   protected:
    void SetUp() override { AccessSanitizer::reset(); }
    void TearDown() override { AccessSanitizer::reset(); }
};

// ---------------------------------------------------------------------------
// Clean paths: every access shape the battery below abuses, used correctly.
// ---------------------------------------------------------------------------

TEST_F(SanitizerTest, CleanPipelineAcrossDeviceCounts)
{
    for (int nDev : {1, 2, 3}) {
        Rig rig(Backend::cpu(nDev));
        const AnalysisReport rep = sanitizeRun(
            rig,
            {
                rig.fill("w0", rig.f0, 1.0),
                rig.stencil("sten", rig.f0, rig.f1),
                patterns::dot(rig.grid, rig.f0, rig.f1, rig.s, "dot"),
                rig.copy("cp", rig.f1, rig.f2),
            },
            "clean");
        EXPECT_TRUE(rep.clean()) << "nDev=" << nDev << "\n" << rep.toString();
        EXPECT_GT(rep.opsAnalyzed, 0u);
    }
}

TEST_F(SanitizerTest, SanitizedRunMatchesPlainRunState)
{
    // The instrumented trampolines must compute the same field state as the
    // plain ones.
    auto runOnce = [](bool sanitized) {
        Rig      rig(Backend::cpu(2));
        Skeleton skl(rig.backend);
        skl.sequence({rig.fill("w0", rig.f0, 1.0), rig.stencil("sten", rig.f0, rig.f1),
                      rig.add("add", rig.f0, rig.f1, rig.f2)},
                     SequenceOptions().withName("par").withSanitize(sanitized));
        skl.run();
        skl.sync();
        std::vector<double> out;
        rig.f2.forEachHost([&](const index_3d&, int, double& v) { out.push_back(v); });
        return out;
    };
    AccessSanitizer::reset();
    EXPECT_EQ(runOnce(false), runOnce(true));
}

// ---------------------------------------------------------------------------
// WriteViaReadAccess
// ---------------------------------------------------------------------------

TEST_F(SanitizerTest, DetectsWriteViaReadAccess)
{
    Rig  rig(Backend::cpu(2));
    auto bad = rig.grid.newContainer("sneakyWrite", [f = rig.f0](auto& l) mutable {
        auto p = l.load(f, Access::READ);
        return [=](const dgrid::DCell& c) mutable { p(c) = 7.0; };
    });
    const AnalysisReport rep = sanitizeRun(rig, {bad});
    EXPECT_TRUE(hasViolationOn(rep, ViolationKind::WriteViaReadAccess, "sneakyWrite"))
        << rep.toString();
    for (const auto& v : rep.violations) {
        if (v.kind == ViolationKind::WriteViaReadAccess) {
            EXPECT_GE(v.device, 0);
        }
    }
}

// ---------------------------------------------------------------------------
// UndeclaredStencil
// ---------------------------------------------------------------------------

TEST_F(SanitizerTest, DetectsUndeclaredStencil)
{
    Rig  rig(Backend::cpu(2));
    auto bad = rig.grid.newContainer("mapButNgh", [src = rig.f0, dst = rig.f1](auto& l) mutable {
        auto sp = l.load(src, Access::READ);  // declared MAP, used as stencil
        auto dp = l.load(dst, Access::WRITE);
        return [=](const dgrid::DCell& c) mutable { dp(c) = sp.nghVal(c, {0, 0, 1}); };
    });
    const AnalysisReport rep = sanitizeRun(rig, {rig.fill("w0", rig.f0, 1.0), bad});
    EXPECT_TRUE(hasViolationOn(rep, ViolationKind::UndeclaredStencil, "mapButNgh"))
        << rep.toString();
}

// ---------------------------------------------------------------------------
// UndeclaredRead / UndeclaredWrite (loadUnchecked escape hatch)
// ---------------------------------------------------------------------------

TEST_F(SanitizerTest, DetectsUndeclaredReadThroughLoadUnchecked)
{
    Rig  rig(Backend::cpu(1));
    auto bad = rig.grid.newContainer("hiddenRead", [src = rig.f0, dst = rig.f1](auto& l) mutable {
        auto sp = l.loadUnchecked(src);  // no declaration at all
        auto dp = l.load(dst, Access::WRITE);
        return [=](const dgrid::DCell& c) mutable {
            dp(c) = static_cast<double>(sp(c));
        };
    });
    const AnalysisReport rep = sanitizeRun(rig, {bad});
    EXPECT_TRUE(hasViolationOn(rep, ViolationKind::UndeclaredRead, "hiddenRead"))
        << rep.toString();
}

TEST_F(SanitizerTest, DetectsUndeclaredWriteThroughLoadUnchecked)
{
    Rig  rig(Backend::cpu(1));
    auto bad = rig.grid.newContainer("hiddenWrite", [src = rig.f0, dst = rig.f1](auto& l) mutable {
        auto sp = l.load(src, Access::READ);
        auto dp = l.loadUnchecked(dst);
        return [=](const dgrid::DCell& c) mutable { dp(c) = sp(c) + 1.0; };
    });
    const AnalysisReport rep = sanitizeRun(rig, {bad});
    EXPECT_TRUE(hasViolationOn(rep, ViolationKind::UndeclaredWrite, "hiddenWrite"))
        << rep.toString();
}

// ---------------------------------------------------------------------------
// StencilRadiusExceeded
// ---------------------------------------------------------------------------

TEST_F(SanitizerTest, DetectsStencilRadiusExceeded)
{
    Rig  rig(Backend::cpu(1));  // laplace7 => halo radius 1
    auto bad = rig.grid.newContainer("wideStencil", [src = rig.f0, dst = rig.f1](auto& l) mutable {
        auto sp = l.load(src, Access::READ, Compute::STENCIL);
        auto dp = l.load(dst, Access::WRITE);
        return [=](const dgrid::DCell& c) mutable {
            // Reach two planes up, but only from a strictly interior cell so
            // the access stays inside allocated memory (grid depth 12).
            double v = sp(c);
            if (c.z == 5) {
                v = sp.nghVal(c, {0, 0, 2});
            }
            dp(c) = v;
        };
    });
    const AnalysisReport rep = sanitizeRun(rig, {rig.fill("w0", rig.f0, 1.0), bad});
    EXPECT_TRUE(hasViolationOn(rep, ViolationKind::StencilRadiusExceeded, "wideStencil"))
        << rep.toString();
}

TEST_F(SanitizerTest, RadiusOneStencilIsClean)
{
    Rig                  rig(Backend::cpu(2));
    const AnalysisReport rep =
        sanitizeRun(rig, {rig.fill("w0", rig.f0, 1.0), rig.stencil("sten", rig.f0, rig.f1)});
    EXPECT_EQ(rep.count(ViolationKind::StencilRadiusExceeded), 0u) << rep.toString();
    EXPECT_TRUE(rep.clean()) << rep.toString();
}

// ---------------------------------------------------------------------------
// OutOfSpanWrite
// ---------------------------------------------------------------------------

TEST_F(SanitizerTest, DetectsOutOfSpanWrite)
{
    Rig            rig(Backend::cpu(1));
    const index_3d dim = rig.grid.dim();
    auto bad = rig.grid.newContainer("strayWrite", [dst = rig.f0, dim](auto& l) mutable {
        auto dp = l.load(dst, Access::WRITE);
        return [=](const dgrid::DCell& c) mutable {
            dp(c) = 1.0;
            if (c.z == 5) {
                // Write a halo plane the launch span does not cover (the
                // memory exists: radius-1 halo below z=0).
                const dgrid::DCell stray(c.x, c.y, -1, dim);
                dp(stray) = 2.0;
            }
        };
    });
    const AnalysisReport rep = sanitizeRun(rig, {bad});
    EXPECT_TRUE(hasViolationOn(rep, ViolationKind::OutOfSpanWrite, "strayWrite"))
        << rep.toString();
}

// ---------------------------------------------------------------------------
// OverdeclaredAccess
// ---------------------------------------------------------------------------

TEST_F(SanitizerTest, DetectsOverdeclaredAccess)
{
    Rig  rig(Backend::cpu(2));
    auto bad = rig.grid.newContainer("hoarder", [a = rig.f0, b = rig.f1, d = rig.f2](auto& l) mutable {
        auto ap = l.load(a, Access::READ);
        auto bp = l.load(b, Access::READ);  // declared, never touched
        auto dp = l.load(d, Access::WRITE);
        return [=](const dgrid::DCell& c) mutable {
            (void)bp;
            dp(c) = ap(c);
        };
    });
    const AnalysisReport rep = sanitizeRun(rig, {rig.fill("w0", rig.f0, 1.0), bad});
    EXPECT_TRUE(hasViolationOn(rep, ViolationKind::OverdeclaredAccess, "hoarder"))
        << rep.toString();
}

TEST_F(SanitizerTest, DetectsParsingOnlyPhantomDeclaration)
{
    // `if (l.isParsing()) l.load(...)` declares an access the execution-time
    // kernel can never perform: the classic way access lists drift.
    Rig  rig(Backend::cpu(1));
    auto bad = rig.grid.newContainer("phantom", [a = rig.f0, b = rig.f1, d = rig.f2](auto& l) mutable {
        auto ap = l.load(a, Access::READ);
        if (l.isParsing()) {
            l.load(b, Access::READ);
        }
        auto dp = l.load(d, Access::WRITE);
        return [=](const dgrid::DCell& c) mutable { dp(c) = ap(c); };
    });
    const AnalysisReport rep = sanitizeRun(rig, {rig.fill("w0", rig.f0, 1.0), bad});
    EXPECT_TRUE(hasViolationOn(rep, ViolationKind::OverdeclaredAccess, "phantom"))
        << rep.toString();
}

// ---------------------------------------------------------------------------
// validate(Deep) and reduce/scalar coverage
// ---------------------------------------------------------------------------

TEST_F(SanitizerTest, ValidateDeepMergesStaticAndSanitizerFindings)
{
    Rig  rig(Backend::cpu(2));
    auto bad = rig.grid.newContainer("sneakyWrite", [f = rig.f1](auto& l) mutable {
        auto p = l.load(f, Access::READ);
        return [=](const dgrid::DCell& c) mutable { p(c) = 3.0; };
    });
    Skeleton skl(rig.backend);
    skl.sequence({rig.fill("w0", rig.f1, 1.0), bad}, SequenceOptions().withName("deep"));
    EXPECT_TRUE(std::as_const(skl).validate().clean());  // static lint can't see it
    const AnalysisReport rep = skl.validate(ValidateMode::Deep);
    EXPECT_TRUE(hasViolationOn(rep, ViolationKind::WriteViaReadAccess, "sneakyWrite"))
        << rep.toString();
}

TEST_F(SanitizerTest, ValidateDeepCleanOnReducePipeline)
{
    Rig      rig(Backend::cpu(2));
    Skeleton skl(rig.backend);
    skl.sequence({rig.fill("w0", rig.f0, 2.0),
                  patterns::dot(rig.grid, rig.f0, rig.f0, rig.s, "dot")},
                 SequenceOptions().withName("reduce"));
    const AnalysisReport rep = skl.validate(ValidateMode::Deep);
    EXPECT_TRUE(rep.clean()) << rep.toString();
    // The deep pass really ran: the reduce result is live.
    EXPECT_NEAR(rig.s.hostValue(), 2.0 * 2.0 * 6 * 5 * 12, 1e-9);
}

}  // namespace neon::analysis
