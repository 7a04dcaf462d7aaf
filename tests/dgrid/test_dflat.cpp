// Flat planes and lane walks (docs/performance.md, "Flat planes and lane
// reductions"). A kernel that declares no stencil read runs each z-plane
// as one loop that keeps x and y by increment, and a dense reduction walks
// the plane handing each cell a compile-time lane. These cases pin that
// both walks visit the ordered walk's cells, in its order and with its
// coordinates and linear index, that the lane is the in-plane index mod 4,
// and that a container on the flat walk writes what the ordered loop
// writes.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "dgrid/dfield.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::dgrid {

using domain::Walk;
using set::Backend;
using set::BackendSpec;

namespace {

constexpr DataView kViews[] = {DataView::STANDARD, DataView::INTERNAL, DataView::BOUNDARY};

/// Planes of 1 to 143 cells, whole lane steps or not; z is the partitioned
/// axis and gives every device at least one owned plane at 3 devices.
constexpr index_3d kDims[] = {{1, 1, 6}, {1, 5, 6},  {2, 4, 6},   {3, 3, 7},
                              {5, 1, 6}, {6, 5, 12}, {13, 11, 9}, {32, 4, 3}};

struct Visit
{
    int32_t x, y, z;
    size_t  flat;
    int     lane;  ///< -1 for walks without lanes

    bool operator==(const Visit&) const = default;
};

std::string show(const Visit& v)
{
    std::ostringstream os;
    os << '(' << v.x << ',' << v.y << ',' << v.z << ") flat " << v.flat << " lane " << v.lane;
    return os.str();
}

template <typename CellT>
constexpr bool kIsDCell = std::is_same_v<std::remove_cvref_t<CellT>, DCell>;

}  // namespace

class DFlatParam : public ::testing::TestWithParam<std::tuple<int, int>>
{
   protected:
    [[nodiscard]] static int      devCount() { return std::get<0>(GetParam()); }
    [[nodiscard]] static index_3d dim() { return kDims[std::get<1>(GetParam())]; }
};

TEST_P(DFlatParam, FlatAndLaneWalksMatchTheOrderedWalk)
{
    const DGrid grid(Backend::cpu(devCount()), dim(), Stencil::laplace7());
    const auto  f = grid.newField<double>("f", 1, 0.0);
    const int   dimX = dim().x;
    for (int dev = 0; dev < grid.devCount(); ++dev) {
        const auto part = f.getPartition(dev);
        for (const DataView view : kViews) {
            SCOPED_TRACE("dev " + std::to_string(dev) + " view " + std::to_string(int(view)));
            const DSpan        span = grid.span(dev, view);
            std::vector<Visit> ordered;
            span.forEach([&](const auto& cell) {
                ordered.push_back({cell.x, cell.y, cell.z, part.flatIdx(cell, 0), -1});
            });
            std::vector<Visit> flat;
            std::vector<Visit> lanes;
            bool               onlyDCells = true;
            const int32_t      n = span.chunkCount();
            for (int32_t c = 0; c < n; ++c) {
                span.forEachChunk<Walk::Flat>(c, n, [&](const auto& cell) {
                    onlyDCells = onlyDCells && kIsDCell<decltype(cell)>;
                    flat.push_back({cell.x, cell.y, cell.z, part.flatIdx(cell, 0), -1});
                });
                span.forEachChunk<Walk::Lanes>(c, n, [&](const auto& cell, auto lane) {
                    static_assert(decltype(lane)::value >= 0 &&
                                  decltype(lane)::value < domain::kReduceLanes);
                    onlyDCells = onlyDCells && kIsDCell<decltype(cell)>;
                    lanes.push_back({cell.x, cell.y, cell.z, part.flatIdx(cell, 0), lane});
                });
            }
            EXPECT_TRUE(onlyDCells) << "a flat or lane walk handed out an interior cell";
            ASSERT_EQ(flat.size(), ordered.size());
            ASSERT_EQ(lanes.size(), ordered.size());
            for (size_t i = 0; i < ordered.size(); ++i) {
                ASSERT_EQ(flat[i], ordered[i])
                    << "flat visit " << i << ": got " << show(flat[i]) << ", want "
                    << show(ordered[i]);
                Visit want = ordered[i];
                want.lane = (want.y * dimX + want.x) % domain::kReduceLanes;
                ASSERT_EQ(lanes[i], want) << "lane visit " << i << ": got " << show(lanes[i])
                                          << ", want " << show(want);
            }
        }
    }
}

namespace {

/// Every cell's global coordinate, packed into one double.
double code(const index_3d& g)
{
    return g.x + 1000.0 * g.y + 1e6 * g.z;
}

/// f = code(globalIdx) through a container that declares only a write of
/// f, so its plain launch takes the flat walk; the sanitized launch keeps
/// the ordered loop. Returns f's host values in forEachHost order.
std::vector<double> writeGlobalIdx(int nDev, index_3d dim, int threads, bool sanitize)
{
    Backend            backend = Backend::make(BackendSpec::cpu(nDev).withHostThreads(threads));
    DGrid              grid(backend, dim, Stencil::laplace7());
    auto               f = grid.newField<double>("f", 1, -1.0);
    skeleton::Skeleton skl(backend);
    skl.sequence({grid.newContainer("coords",
                                    [f](auto& l) mutable {
                                        auto fp = l.load(f, Access::WRITE);
                                        return [=](const auto& cell) mutable {
                                            fp(cell) = code(fp.globalIdx(cell));
                                        };
                                    })},
                 skeleton::SequenceOptions().withName("coords").withSanitize(sanitize));
    skl.run();
    skl.sync();
    f.updateHost();
    std::vector<double> out;
    f.forEachHost([&](const index_3d&, int, double& v) { out.push_back(v); });
    return out;
}

}  // namespace

TEST_P(DFlatParam, FlatMapSeesEveryCellsGlobalIndex)
{
    const DGrid         grid(Backend::cpu(devCount()), dim(), Stencil::laplace7());
    std::vector<double> want;
    grid.newField<double>("g", 1, 0.0).forEachHost(
        [&](const index_3d& g, int, double&) { want.push_back(code(g)); });
    const std::vector<double> ordered = writeGlobalIdx(devCount(), dim(), 1, true);
    ASSERT_EQ(ordered, want) << "the ordered loop itself is off";
    for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        EXPECT_EQ(writeGlobalIdx(devCount(), dim(), threads, false), ordered);
    }
}

namespace {

std::vector<std::tuple<int, int>> flatCases()
{
    std::vector<std::tuple<int, int>> out;
    for (const int nDev : {1, 2, 3}) {
        for (int i = 0; i < static_cast<int>(std::size(kDims)); ++i) {
            if (kDims[i].z >= nDev) {
                out.emplace_back(nDev, i);
            }
        }
    }
    return out;
}

std::string flatCaseName(const ::testing::TestParamInfo<std::tuple<int, int>>& info)
{
    const auto [nDev, dimIdx] = info.param;
    const index_3d d = kDims[dimIdx];
    return "dev" + std::to_string(nDev) + "_" + std::to_string(d.x) + "x" + std::to_string(d.y) +
           "x" + std::to_string(d.z);
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(Cases, DFlatParam, ::testing::ValuesIn(flatCases()), flatCaseName);

}  // namespace neon::dgrid
