// Scheduler edge cases: stream caps, skeleton redefinition, wide graphs,
// and where the scalar tasks of a multi-device CG iteration synchronise.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "cg_iteration.hpp"
#include "dgrid/dfield.hpp"
#include "dgrid/dgrid.hpp"
#include "patterns/blas.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::skeleton {

using set::Backend;
using set::Container;

namespace {

constexpr index_3d kDim{4, 4, 8};

struct WideApp
{
    dgrid::DGrid                       grid;
    std::vector<dgrid::DField<double>> fields;

    WideApp(Backend backend, int width) : grid(std::move(backend), kDim, Stencil::laplace7())
    {
        for (int i = 0; i < width; ++i) {
            fields.push_back(grid.newField<double>("f" + std::to_string(i), 1, 0.0));
        }
    }

    /// `width` independent maps (one per field) then one container reading
    /// them all — a graph level wider than any stream cap we test.
    [[nodiscard]] std::vector<Container> sequence()
    {
        std::vector<Container> seq;
        for (size_t i = 0; i < fields.size(); ++i) {
            auto f = fields[i];
            const double v = static_cast<double>(i + 1);
            seq.push_back(grid.newContainer("map" + std::to_string(i), [f, v](auto& l) mutable {
                auto fp = l.load(f, Access::WRITE);
                return [=](const dgrid::DCell& c) mutable { fp(c) = v; };
            }));
        }
        auto all = fields;
        auto sum = fields[0];
        seq.push_back(grid.newContainer("gather", [all, sum](auto& l) mutable {
            std::vector<decltype(l.load(all[0], Access::READ))> parts;
            for (auto& f : all) {
                parts.push_back(l.load(f, Access::READ));
            }
            auto out = l.load(sum, Access::WRITE);
            return [=](const dgrid::DCell& c) mutable {
                double acc = 0;
                for (const auto& p : parts) {
                    acc += p(c);
                }
                out(c) = acc;
            };
        }));
        return seq;
    }
};

}  // namespace

TEST(SchedulerEdge, StreamCapOneSerializesButStaysCorrect)
{
    WideApp  app(Backend::cpu(2), 5);
    Skeleton skl(app.grid.backend());
    skl.sequence(app.sequence(), SequenceOptions().withName("wide").withMaxStreams(1));
    EXPECT_EQ(skl.streamCount(), 1);
    skl.run();
    skl.sync();
    app.fields[0].updateHost();
    kDim.forEach([&](const index_3d& g) {
        EXPECT_DOUBLE_EQ(app.fields[0].hVal(g), 1.0 + 2 + 3 + 4 + 5);
    });
}

TEST(SchedulerEdge, WideLevelUsesMultipleStreams)
{
    WideApp  app(Backend::cpu(1), 6);
    Skeleton skl(app.grid.backend());
    skl.sequence(app.sequence(), SequenceOptions().withName("wide"));
    EXPECT_GE(skl.streamCount(), 6);
    skl.run();
    skl.sync();
    app.fields[0].updateHost();
    EXPECT_DOUBLE_EQ(app.fields[0].hVal({0, 0, 0}), 21.0);
}

TEST(SchedulerEdge, StreamCapBelowWidthWrapsRoundRobin)
{
    WideApp  app(Backend::cpu(1), 6);
    Skeleton skl(app.grid.backend());
    skl.sequence(app.sequence(), SequenceOptions().withName("wide").withMaxStreams(3));
    EXPECT_EQ(skl.streamCount(), 3);
    for (const auto& t : skl.taskList()) {
        EXPECT_GE(t.stream, 0);
        EXPECT_LT(t.stream, 3);
    }
    skl.run();
    skl.sync();
    app.fields[0].updateHost();
    EXPECT_DOUBLE_EQ(app.fields[0].hVal({1, 1, 1}), 21.0);
}

TEST(SchedulerEdge, SequenceCanBeRedefined)
{
    WideApp  app(Backend::cpu(2), 2);
    Skeleton skl(app.grid.backend());
    skl.sequence(app.sequence(), SequenceOptions().withName("first"));
    skl.run();
    skl.sync();

    // Redefine with a single container; old graph must be replaced.
    auto f = app.fields[1];
    auto c = app.grid.newContainer("overwrite", [f](auto& l) mutable {
        auto fp = l.load(f, Access::WRITE);
        return [=](const dgrid::DCell& cell) mutable { fp(cell) = -3.0; };
    });
    skl.sequence({c}, SequenceOptions().withName("second"));
    EXPECT_EQ(skl.graph().aliveCount(), 1);
    skl.run();
    skl.sync();
    app.fields[1].updateHost();
    EXPECT_DOUBLE_EQ(app.fields[1].hVal({0, 0, 0}), -3.0);
}

TEST(SchedulerEdge, ScalarTasksSyncOnDeviceZeroOnly)
{
    using testing::CgIteration;
    using testing::OpCounter;
    constexpr int kDevs = 8;
    Backend     backend = testing::dryA100s(kDevs);
    CgIteration cg(backend);
    Skeleton    skl(backend);
    skl.sequence(cg.containers(), CgIteration::options());
    EXPECT_TRUE(skl.validate().clean()) << skl.validate().toString();
    skl.run();  // warm: the next run also waits on this one's data chains
    skl.sync();

    auto counter = std::make_shared<OpCounter>(skl.graph());
    backend.engine().setEnqueueHook(counter);
    skl.run();
    backend.engine().setEnqueueHook(nullptr);
    skl.sync();
    // A reduce combine, alpha and beta run on device 0 only; so do their
    // waits and completion records.
    EXPECT_EQ(counter->scalarSyncOffRoot(), 0);
    EXPECT_EQ(counter->count(sys::OpKind::Kernel), 56);
    EXPECT_EQ(counter->count(sys::OpKind::Transfer), 8);
    EXPECT_EQ(counter->count(sys::OpKind::HostFn), 4);
    EXPECT_LE(counter->count(sys::OpKind::Wait), 130);
    EXPECT_LE(counter->count(sys::OpKind::Record), 60);
    EXPECT_LE(counter->total(), 260);

    auto races = backend.analysis();
    races.enable();
    skl.run();
    skl.sync();
    EXPECT_TRUE(races.raceReport().clean()) << races.raceReport().toString();
}

TEST(SchedulerEdge, ScalarSyncKeepsCgMakespan)
{
    // Virtual makespan of a fixed 10-iteration cgSolve (standard OCC) on 8
    // dry-run A100s, as it was when scalar tasks synchronised on every
    // device. Consumers wait on the scalar's device-0 event, so keeping the
    // scalar's own waits off devices 1-7 must not move it.
    constexpr double kMakespan = 0.00069627143225806435;
    Backend          backend = testing::dryA100s(8);
    dgrid::DGrid     grid(backend, testing::CgIteration::kDim, Stencil::laplace7());
    auto             x = grid.newField<double>("x", 1, 0.0);
    auto             b = grid.newField<double>("b", 1, 0.0);
    solver::CgOptions options;
    options.maxIterations = 10;
    options.occ = Occ::STANDARD;
    options.fixedIterations = true;
    (void)poisson::solveSine(grid, x, b, options);
    const double makespan = backend.profiler().makespan();
    char         printed[32];
    std::snprintf(printed, sizeof(printed), "%.17g", makespan);
    EXPECT_EQ(makespan, kMakespan) << "makespan " << printed;
}

}  // namespace neon::skeleton
