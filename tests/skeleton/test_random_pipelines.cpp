// Randomized property test: generate arbitrary (seeded) sequences of map /
// stencil / reduce / scalar containers and check that every backend
// configuration — device count x OCC level — produces the same
// fields and scalars as the single-device reference. This is the paper's
// core contract stated as a property.

#include <gtest/gtest.h>

#include <random>

#include "dgrid/dfield.hpp"
#include "patterns/blas.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::skeleton {

using set::Backend;
using set::Container;
using set::GlobalScalar;

namespace {

constexpr index_3d kDim{5, 4, 16};
constexpr int      kFields = 3;
constexpr int      kRuns = 2;

struct Pipeline
{
    dgrid::DGrid                       grid;
    std::vector<dgrid::DField<double>> fields;
    GlobalScalar<double>               s0;
    GlobalScalar<double>               s1;
    std::vector<Container>             seq;

    Pipeline(Backend backend, unsigned seed)
        : grid(std::move(backend), kDim, Stencil::laplace7()),
          s0(grid.backend(), "s0", 0.3),
          s1(grid.backend(), "s1", 0.7)
    {
        for (int i = 0; i < kFields; ++i) {
            auto f = grid.newField<double>("f" + std::to_string(i), 1, 0.0);
            f.forEachHost([i](const index_3d& g, int, double& v) {
                v = 0.01 * (g.x + 2 * g.y + 3 * g.z) + 0.1 * i + 0.05;
            });
            f.updateDev();
            fields.push_back(std::move(f));
        }
        build(seed);
    }

    void build(unsigned seed)
    {
        std::mt19937                    rng(seed);
        std::uniform_int_distribution<> opDist(0, 3);
        std::uniform_int_distribution<> fieldDist(0, kFields - 1);
        const int                       length = 4 + static_cast<int>(rng() % 5);

        for (int k = 0; k < length; ++k) {
            const int op = opDist(rng);
            const int a = fieldDist(rng);
            int       b = fieldDist(rng);
            if (op == 1 && b == a) {
                b = (a + 1) % kFields;  // stencils must not write their input
            }
            auto src = fields[static_cast<size_t>(a)];
            auto dst = fields[static_cast<size_t>(b)];
            const std::string tag = std::to_string(k);
            switch (op) {
                case 0: {  // map: dst = 0.9*dst + s0*src + 0.01
                    auto s = s0;
                    seq.push_back(grid.newContainer("map" + tag, [src, dst, s](auto& l) mutable {
                        auto sp = l.load(src, Access::READ);
                        auto dp = l.load(dst, Access::WRITE);
                        auto sv = l.load(s, Access::READ);
                        return [=](const dgrid::DCell& c) mutable {
                            dp(c) = 0.9 * dp(c) + sv() * sp(c) + 0.01;
                        };
                    }));
                    break;
                }
                case 1: {  // stencil: dst = src + 0.05 * laplacian(src)
                    seq.push_back(grid.newContainer("sten" + tag, [src, dst](auto& l) mutable {
                        auto sp = l.load(src, Access::READ, Compute::STENCIL);
                        auto dp = l.load(dst, Access::WRITE);
                        return [=](const dgrid::DCell& c) mutable {
                            double acc = -6.0 * sp(c);
                            for (const auto& off : Stencil::laplace7().points()) {
                                acc += sp.nghVal(c, off);
                            }
                            dp(c) = sp(c) + 0.05 * acc;
                        };
                    }));
                    break;
                }
                case 2: {  // reduce: s1 = src . dst
                    seq.push_back(patterns::dot(grid, src, dst, s1, "dot" + tag));
                    break;
                }
                case 3: {  // scalar: s0 = tanh-ish mix of s0, s1
                    auto x = s0;
                    auto y = s1;
                    seq.push_back(Container::scalarOp<double>(
                        "scal" + tag, grid.backend(), {x, y}, {x}, [x, y]() mutable {
                            x.set(0.5 * x.hostValue() +
                                  y.hostValue() / (1.0 + std::abs(y.hostValue())));
                        }));
                    break;
                }
                default: break;
            }
        }
    }

    struct Snapshot
    {
        std::vector<double> data;
        double              s0v = 0.0;
        double              s1v = 0.0;
    };

    Snapshot execute(Occ occ)
    {
        Skeleton skl(grid.backend());
        skl.sequence(seq, SequenceOptions().withName("random").withOcc(occ));
        for (int r = 0; r < kRuns; ++r) {
            skl.run();
        }
        skl.sync();
        Snapshot snap;
        for (auto& f : fields) {
            f.updateHost();
            kDim.forEach([&](const index_3d& g) { snap.data.push_back(f.hVal(g)); });
        }
        snap.s0v = s0.hostValue();
        snap.s1v = s1.hostValue();
        return snap;
    }
};

}  // namespace

class RandomPipelines : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(RandomPipelines, AllConfigurationsMatchReference)
{
    const unsigned seed = GetParam();
    auto           ref = Pipeline(Backend::cpu(1), seed).execute(Occ::NONE);

    struct Config
    {
        int nDev;
        Occ occ;
    };
    const Config configs[] = {
        {2, Occ::NONE}, {4, Occ::STANDARD}, {3, Occ::EXTENDED}, {4, Occ::TWO_WAY}, {8, Occ::TWO_WAY},
    };
    for (const auto& cfg : configs) {
        Pipeline p(Backend::cpu(cfg.nDev), seed);
        const auto got = p.execute(cfg.occ);
        ASSERT_EQ(got.data.size(), ref.data.size());
        for (size_t i = 0; i < ref.data.size(); ++i) {
            ASSERT_NEAR(got.data[i], ref.data[i], std::abs(ref.data[i]) * 1e-11 + 1e-13)
                << "seed " << seed << " dev" << cfg.nDev << " occ " << to_string(cfg.occ)
                << " idx " << i;
        }
        EXPECT_NEAR(got.s0v, ref.s0v, std::abs(ref.s0v) * 1e-11 + 1e-13);
        EXPECT_NEAR(got.s1v, ref.s1v, std::abs(ref.s1v) * 1e-11 + 1e-13);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipelines,
                         ::testing::Values(11u, 23u, 37u, 58u, 71u, 94u, 107u, 131u));

}  // namespace neon::skeleton
