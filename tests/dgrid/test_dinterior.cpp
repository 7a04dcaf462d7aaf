// Interior cells and independent rows (docs/domain.md, "Dense cells"). The
// dense span decoder hands every cell whose radius-1 neighbourhood lies in
// the global domain to the kernel as a DInteriorCell, whose neighbour reads
// skip the bounds test; kernels whose cells are independent run each row's
// interior run as one vectorizable loop. These cases pin what must not
// change: the visiting order and linear index, the exact interior set, the
// value and validity of every neighbour read, and the ordered loop for
// kernels whose cells depend on each other.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "dgrid/dfield.hpp"
#include "set/container.hpp"

namespace neon::dgrid {

using set::Backend;
using set::BackendSpec;
using set::Container;
using set::StreamSet;

namespace {

constexpr DataView kViews[] = {DataView::STANDARD, DataView::INTERNAL, DataView::BOUNDARY};
constexpr double   kOutside = -7.0;

/// Grids with an axis of 1, 2 or 3 cells next to roomier ones; z is the
/// partitioned axis.
constexpr index_3d kDims[] = {{1, 5, 6},  {2, 4, 6}, {3, 3, 6}, {5, 1, 6}, {4, 2, 6},
                              {6, 3, 6},  {4, 5, 1}, {5, 4, 2}, {4, 4, 3}, {6, 5, 12}};

double truth(const index_3d& g, int c)
{
    return 1.0 + g.x + 10.0 * g.y + 100.0 * g.z + 10000.0 * c;
}

template <typename CellT>
constexpr bool kIsInterior = std::is_same_v<std::remove_cvref_t<CellT>, DInteriorCell>;

/// Halo radius 2 in z, so every in-domain read at an offset in [-2, 2]^3
/// stays inside the partition's allocation.
Stencil radius2()
{
    return Stencil::unionOf({Stencil::box27(), Stencil({{0, 0, 2}, {0, 0, -2}}, "z2")});
}

struct Visit
{
    int32_t x, y, z;
    size_t  flat;
    bool    interior;

    bool operator==(const Visit&) const = default;
};

std::string show(const Visit& v)
{
    std::ostringstream os;
    os << "(" << v.x << "," << v.y << "," << v.z << ") flat " << v.flat
       << (v.interior ? " interior" : "");
    return os.str();
}

struct FieldShape
{
    int       card;
    MemLayout layout;
};

constexpr FieldShape kShapes[] = {{1, MemLayout::structOfArrays},
                                  {1, MemLayout::arrayOfStructs},
                                  {3, MemLayout::structOfArrays},
                                  {3, MemLayout::arrayOfStructs}};

std::string shapeName(const FieldShape& s)
{
    return std::string("card ") + std::to_string(s.card) +
           (s.layout == MemLayout::structOfArrays ? " SoA" : " AoS");
}

}  // namespace

/// (devices, dims index); each case runs cardinality 1 and 3 in both
/// layouts.
using InteriorCase = std::tuple<int, int>;

class DInteriorParam : public ::testing::TestWithParam<InteriorCase>
{
   protected:
    [[nodiscard]] static index_3d dim() { return kDims[std::get<1>(GetParam())]; }

    [[nodiscard]] static DGrid makeGrid()
    {
        return DGrid(Backend::cpu(std::get<0>(GetParam())), dim(), radius2());
    }

    /// The plain walk of `span` on device `dev`: slots ascending,
    /// y-outer/x-inner, each cell's flat index from the hand-built DCell,
    /// and whether the cell is interior by the coordinate rule.
    template <typename PartT>
    [[nodiscard]] static std::vector<Visit> expectedWalk(const DGrid& grid, int dev,
                                                         const DSpan& span, const PartT& part)
    {
        const index_3d    d = grid.dim();
        const int32_t     z0 = grid.part(dev).zOrigin;
        std::vector<Visit> out;
        for (const auto& r : {span.range0(), span.range1()}) {
            for (int32_t z = r.first; z < r.first + r.count; ++z) {
                for (int32_t y = 0; y < d.y; ++y) {
                    for (int32_t x = 0; x < d.x; ++x) {
                        const bool interior = x >= 1 && x < d.x - 1 && y >= 1 && y < d.y - 1 &&
                                              z0 + z >= 1 && z0 + z < d.z - 1;
                        out.push_back({x, y, z, part.flatIdx(DCell(x, y, z, d), 0), interior});
                    }
                }
            }
        }
        return out;
    }

    /// Cells with x, y and global z all in [1, extent - 1).
    [[nodiscard]] static size_t interiorCount()
    {
        const index_3d d = dim();
        auto inner = [](int32_t n) { return static_cast<size_t>(n > 2 ? n - 2 : 0); };
        return inner(d.x) * inner(d.y) * inner(d.z);
    }

    template <typename FieldT>
    static void checkWalk(const DGrid& grid, const FieldT& f);
    template <typename FieldT>
    static void checkReads(const DGrid& grid, FieldT& f);
};

TEST_P(DInteriorParam, OrderAndInteriorSetMatchThePlainWalk)
{
    const DGrid grid = makeGrid();
    for (const FieldShape& shape : kShapes) {
        SCOPED_TRACE(shapeName(shape));
        const auto f = grid.newField<double>("f", shape.card, kOutside, shape.layout);
        checkWalk(grid, f);
    }
}

TEST_P(DInteriorParam, InteriorReadsEqualCheckedReads)
{
    const DGrid grid = makeGrid();
    for (const FieldShape& shape : kShapes) {
        SCOPED_TRACE(shapeName(shape));
        auto f = grid.newField<double>("f", shape.card, kOutside, shape.layout);
        checkReads(grid, f);
    }
}

template <typename FieldT>
void DInteriorParam::checkWalk(const DGrid& grid, const FieldT& f)
{
    size_t interiorCells = 0;
    for (int dev = 0; dev < grid.devCount(); ++dev) {
        const auto part = f.getPartition(dev);
        for (const DataView view : kViews) {
            SCOPED_TRACE("dev " + std::to_string(dev) + " view " + std::to_string(int(view)));
            const DSpan span = grid.span(dev, view);
            const auto  expected = expectedWalk(grid, dev, span, part);
            auto record = [&](std::vector<Visit>& out) {
                return [&out, &part](const auto& cell) {
                    out.push_back({cell.x, cell.y, cell.z, part.flatIdx(cell, 0),
                                   kIsInterior<decltype(cell)>});
                };
            };
            std::vector<Visit> ordered;
            span.forEach(record(ordered));
            std::vector<Visit> independent;
            for (int32_t c = 0; c < span.chunkCount(); ++c) {
                span.forEachChunk<domain::Walk::Rows>(c, span.chunkCount(), record(independent));
            }
            ASSERT_EQ(ordered.size(), expected.size());
            ASSERT_EQ(independent.size(), expected.size());
            for (size_t i = 0; i < expected.size(); ++i) {
                ASSERT_EQ(ordered[i], expected[i])
                    << "visit " << i << ": got " << show(ordered[i]) << ", want "
                    << show(expected[i]);
                ASSERT_EQ(independent[i], expected[i])
                    << "independent visit " << i << ": got " << show(independent[i])
                    << ", want " << show(expected[i]);
            }
            if (view == DataView::STANDARD) {
                for (const Visit& v : expected) {
                    interiorCells += v.interior ? 1 : 0;
                }
            }
        }
    }
    EXPECT_EQ(interiorCells, interiorCount());
}

template <typename FieldT>
void DInteriorParam::checkReads(const DGrid& grid, FieldT& f)
{
    const int card = f.cardinality();
    f.forEachHost([](const index_3d& g, int c, double& v) { v = truth(g, c); });
    f.updateDev();
    StreamSet streams(grid.backend(), 0);
    Container::haloUpdate(f.haloOps()).run(streams);
    grid.backend().sync();

    const index_3d d = dim();
    size_t         checked = 0;
    for (int dev = 0; dev < grid.devCount(); ++dev) {
        const auto part = f.getPartition(dev);
        grid.span(dev, DataView::STANDARD).forEach([&](const auto& cell) {
            if constexpr (kIsInterior<decltype(cell)>) {
                const DCell&   plain = cell;
                const index_3d g = part.globalIdx(cell);
                for (int dz = -2; dz <= 2; ++dz) {
                    for (int dy = -2; dy <= 2; ++dy) {
                        for (int dx = -2; dx <= 2; ++dx) {
                            const index_3d off{dx, dy, dz};
                            const index_3d n = g + off;
                            for (int c = 0; c < card; ++c) {
                                const auto fast = part.nghData(cell, off, c);
                                const auto slow = part.nghData(plain, off, c);
                                ASSERT_EQ(fast.isValid, slow.isValid)
                                    << "cell " << g.to_string() << " off " << off.to_string();
                                ASSERT_EQ(fast.value, slow.value)
                                    << "cell " << g.to_string() << " off " << off.to_string()
                                    << " comp " << c;
                                ASSERT_EQ(part.nghVal(cell, off, c), slow.value);
                                ASSERT_EQ(fast.isValid, d.contains(n));
                                ASSERT_EQ(fast.value, d.contains(n) ? truth(n, c) : kOutside);
                                ++checked;
                            }
                        }
                    }
                }
            }
        });
    }
    EXPECT_EQ(checked, interiorCount() * 125 * static_cast<size_t>(card));
}

namespace {

/// Every case keeps at least two owned planes per device (the radius-2
/// halo's minimum).
std::vector<InteriorCase> interiorCases()
{
    std::vector<InteriorCase> out;
    for (const int nDev : {1, 2, 3}) {
        for (int i = 0; i < static_cast<int>(std::size(kDims)); ++i) {
            if (kDims[i].z < 2 * nDev) {
                continue;
            }
            out.emplace_back(nDev, i);
        }
    }
    return out;
}

std::string caseName(const ::testing::TestParamInfo<InteriorCase>& info)
{
    const auto [nDev, dimIdx] = info.param;
    const index_3d d = kDims[dimIdx];
    return std::string("dev") + std::to_string(nDev) + "_" + std::to_string(d.x) + "x" +
           std::to_string(d.y) + "x" + std::to_string(d.z);
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(Cases, DInteriorParam, ::testing::ValuesIn(interiorCases()), caseName);

// --- the independence guard ---------------------------------------------------

namespace {

constexpr index_3d kGuardDim{16, 4, 4};

/// `f = f(x - 1) + 1` on a 16x4x4 grid, through the container `make`
/// builds, at pool width `threads`; returns every cell's value.
template <typename Make>
std::vector<float> runSelfDependent(int threads, Make&& make)
{
    Backend    backend = Backend::make(BackendSpec::cpu(1).withHostThreads(threads));
    DGrid      grid(backend, kGuardDim, Stencil::laplace7());
    auto       f = grid.newField<float>("f", 1, 0.0f);
    const auto c = make(grid, f);
    StreamSet  streams(backend, 0);
    c.run(streams);
    backend.sync();
    f.updateHost();
    std::vector<float> out;
    f.forEachHost([&](const index_3d&, int, float& v) { out.push_back(v); });
    return out;
}

void expectRunsAlongX(const std::vector<float>& got)
{
    ASSERT_EQ(got.size(), kGuardDim.size());
    for (size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], static_cast<float>(i % kGuardDim.x + 1)) << "cell " << i;
    }
}

}  // namespace

TEST(DInteriorGuard, StencilReadOfAWrittenFieldKeepsTheOrderedLoop)
{
    for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        expectRunsAlongX(runSelfDependent(threads, [](const DGrid& grid, DField<float> f) {
            return grid.newContainer("selfStencil", [f](auto& l) mutable {
                auto src = l.load(f, Access::READ, Compute::STENCIL);
                auto dst = l.load(f, Access::WRITE);
                return [=](const auto& c) mutable { dst(c) = src.nghVal(c, {-1, 0, 0}) + 1.0f; };
            });
        }));
    }
}

TEST(DInteriorGuard, LoadUncheckedKeepsTheOrderedLoop)
{
    for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        expectRunsAlongX(runSelfDependent(threads, [](const DGrid& grid, DField<float> f) {
            return grid.newContainer("selfUnchecked", [f](auto& l) mutable {
                auto src = l.loadUnchecked(f);
                auto dst = l.load(f, Access::WRITE);
                return [=](const auto& c) mutable { dst(c) = src.nghVal(c, {-1, 0, 0}) + 1.0f; };
            });
        }));
    }
}

TEST(DInteriorGuard, GlobalScalarWriteKeepsTheOrderedLoop)
{
    // Without the declared scalar write the kernel's cells would count as
    // independent: it declares f only as a map read and a map write. Its
    // (undeclared) neighbour read of f makes the loop order observable.
    for (const int threads : {1, 4}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        expectRunsAlongX(runSelfDependent(threads, [](const DGrid& grid, DField<float> f) {
            set::GlobalScalar<float> s(grid.backend(), "s", 0.0f);
            return grid.newContainer("scalarWriter", [f, s](auto& l) mutable {
                (void)l.load(s, Access::WRITE);
                auto src = l.load(f, Access::READ);
                auto dst = l.load(f, Access::WRITE);
                return [=](const auto& c) mutable { dst(c) = src.nghVal(c, {-1, 0, 0}) + 1.0f; };
            });
        }));
    }
}

TEST(DInteriorGuard, LoaderDecidesIndependenceFromDeclaredAccesses)
{
    Backend    backend = Backend::cpu(1);
    DGrid      grid(backend, kGuardDim, Stencil::laplace7());
    auto       a = grid.newField<float>("a", 1, 0.0f);
    auto       b = grid.newField<float>("b", 1, 0.0f);
    set::GlobalScalar<float> s(backend, "s", 0.0f);
    auto fresh = [] { return set::Loader::execution(0, DataView::STANDARD); };

    {
        auto l = fresh();  // stencil read of one field, write of another
        (void)l.load(a, Access::READ, Compute::STENCIL);
        (void)l.load(b, Access::WRITE);
        (void)l.load(s, Access::READ);
        EXPECT_TRUE(l.cellsIndependent());
    }
    {
        auto l = fresh();  // map read and write of the same field
        (void)l.load(a, Access::READ);
        (void)l.load(a, Access::WRITE);
        EXPECT_TRUE(l.cellsIndependent());
    }
    {
        auto l = fresh();  // write first, stencil read second
        (void)l.load(a, Access::WRITE);
        (void)l.load(a, Access::READ, Compute::STENCIL);
        EXPECT_FALSE(l.cellsIndependent());
    }
    {
        auto l = fresh();
        (void)l.load(b, Access::WRITE);
        (void)l.load(s, Access::WRITE);
        EXPECT_FALSE(l.cellsIndependent());
    }
    {
        auto l = fresh();
        (void)l.load(b, Access::WRITE);
        (void)l.loadUnchecked(a);
        EXPECT_FALSE(l.cellsIndependent());
    }
    {
        // More written fields than the loader tracks: dependent.
        std::vector<DField<float>> many;
        for (int i = 0; i < 9; ++i) {
            const std::string name = std::string("w").append(std::to_string(i));
            many.push_back(grid.newField<float>(name, 1, 0.0f));
        }
        auto l = fresh();
        for (size_t i = 0; i < 8; ++i) {
            (void)l.load(many[i], Access::WRITE);
        }
        EXPECT_TRUE(l.cellsIndependent());
        (void)l.load(many[8], Access::WRITE);
        EXPECT_FALSE(l.cellsIndependent());
    }
}

}  // namespace neon::dgrid
