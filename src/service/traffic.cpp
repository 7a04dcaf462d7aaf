// Synthetic traffic generation for neon::service (docs/service.md).

#include "service/traffic.hpp"

#include <cmath>
#include <random>
#include <utility>

#include "patterns/blas.hpp"
#include "set/container.hpp"

namespace neon::service {

using set::Container;
using set::GlobalScalar;

std::string to_string(WorkloadKind k)
{
    switch (k) {
        case WorkloadKind::Lbm: return "lbm";
        case WorkloadKind::Poisson: return "poisson";
        case WorkloadKind::Fem: return "fem";
    }
    return "?";
}

std::string JobDesc::toString() const
{
    return to_string(kind) + "#" + std::to_string(index) + " tenant=" + tenant +
           " arrival=" + std::to_string(arrival) + " dim=" + std::to_string(dim.x) + "x" +
           std::to_string(dim.y) + "x" + std::to_string(dim.z) +
           " runs=" + std::to_string(runs) + " seed=" + std::to_string(seed);
}

std::vector<JobDesc> makeTrace(const TrafficSpec& spec)
{
    NEON_CHECK(spec.jobs >= 1, "TrafficSpec: jobs must be >= 1");
    NEON_CHECK(spec.tenants >= 1, "TrafficSpec: tenants must be >= 1");
    NEON_CHECK(spec.meanGap > 0.0, "TrafficSpec: meanGap must be > 0");
    std::mt19937 rng(spec.seed * 2654435761u + 97u);
    auto         pick = [&rng](int lo, int hi) {
        return lo + static_cast<int>(rng() % static_cast<unsigned>(hi - lo + 1));
    };
    // Small per-kind dim menus: few distinct shapes => many structural
    // schedule-key collisions => the batching path actually exercises.
    static const index_3d kLbmDims[] = {{4, 4, 8}, {5, 4, 8}, {6, 4, 10}};
    static const index_3d kPoissonDims[] = {{4, 5, 8}, {5, 5, 10}};
    static const index_3d kFemDims[] = {{4, 4, 6}, {6, 5, 8}};

    std::vector<JobDesc> trace;
    trace.reserve(static_cast<size_t>(spec.jobs));
    double now = 0.0;
    for (int i = 0; i < spec.jobs; ++i) {
        // Poisson arrivals: exponential gaps, inverse-CDF on a uniform
        // drawn from the open interval (std::exponential_distribution is
        // implementation-defined; this is reproducible everywhere).
        const double u = (static_cast<double>(rng()) + 0.5) / 4294967296.0;
        now += -spec.meanGap * std::log(1.0 - u);

        JobDesc d;
        d.index = i;
        d.arrival = now;
        d.tenant = "t" + std::to_string(pick(0, spec.tenants - 1));
        d.runs = pick(1, std::max(1, spec.maxRuns));
        d.seed = rng();
        switch (pick(0, 2)) {
            case 0:
                d.kind = WorkloadKind::Lbm;
                d.dim = kLbmDims[pick(0, 2)];
                break;
            case 1:
                d.kind = WorkloadKind::Poisson;
                d.dim = kPoissonDims[pick(0, 1)];
                break;
            default:
                d.kind = WorkloadKind::Fem;
                d.dim = kFemDims[pick(0, 1)];
                break;
        }
        trace.push_back(std::move(d));
    }
    return trace;
}

namespace {

Container makeStencil(dgrid::DGrid& grid, const std::string& name,
                      dgrid::DField<double> src, dgrid::DField<double> dst)
{
    return grid.newContainer(name, [src, dst](auto& l) mutable {
        auto sp = l.load(src, Access::READ, Compute::STENCIL);
        auto dp = l.load(dst, Access::WRITE);
        // Built once per launch record, not once per cell.
        const std::vector<index_3d> points = Stencil::laplace7().points();
        return [=](const dgrid::DCell& c) mutable {
            double acc = -6.0 * sp(c);
            for (const auto& off : points) {
                acc += sp.nghVal(c, off);
            }
            dp(c) = sp(c) + 0.05 * acc;
        };
    });
}

Container makeMap(dgrid::DGrid& grid, const std::string& name, dgrid::DField<double> src,
                  dgrid::DField<double> dst, GlobalScalar<double> s)
{
    return grid.newContainer(name, [src, dst, s](auto& l) mutable {
        auto sp = l.load(src, Access::READ);
        auto dp = l.load(dst, Access::WRITE);
        auto sv = l.load(s, Access::READ);
        return [=](const dgrid::DCell& c) mutable {
            dp(c) = 0.9 * dp(c) + sv() * sp(c) + 0.01;
        };
    });
}

}  // namespace

BuiltJob buildJob(const set::Backend& backend, const JobDesc& desc)
{
    BuiltJob     out;
    out.desc = desc;
    set::Backend bk = backend;
    auto         grid = std::make_shared<dgrid::DGrid>(bk, desc.dim, Stencil::laplace7());
    out.grid = grid;

    const int nFields = desc.kind == WorkloadKind::Fem ? 3 : 2;
    const double jitter = 0.001 * static_cast<double>(desc.seed % 997u);
    for (int i = 0; i < nFields; ++i) {
        auto f = grid->newField<double>("f" + std::to_string(i), 1, 0.0);
        if (!bk.isDryRun()) {
            // Dry-run backends carry no host mirrors (kernels never touch
            // cells there), so the value init only applies to real runs.
            f.forEachHost([i, jitter](const index_3d& g, int, double& v) {
                v = 0.01 * (g.x + 2 * g.y + 3 * g.z) + 0.1 * i + jitter;
            });
            f.updateDev();
        }
        out.fields.push_back(std::move(f));
    }
    out.scalars.emplace_back(bk, "s0", 0.3 + jitter);
    out.scalars.emplace_back(bk, "s1", 0.7);

    auto& f = out.fields;
    auto& s = out.scalars;
    auto& ops = out.request.ops;
    skeleton::SequenceOptions options;
    switch (desc.kind) {
        case WorkloadKind::Lbm:
            // Stencil ping-pong: the PR-2 LBM shape. Each run chains on the
            // previous through the per-uid data barriers.
            ops.push_back(makeStencil(*grid, "lbm-even", f[0], f[1]));
            ops.push_back(makeStencil(*grid, "lbm-odd", f[1], f[0]));
            options.withOcc(Occ::NONE).withMaxStreams(2);
            break;
        case WorkloadKind::Poisson:
            // Jacobi sweeps plus a residual-style reduction.
            ops.push_back(makeStencil(*grid, "jacobi-even", f[0], f[1]));
            ops.push_back(makeStencil(*grid, "jacobi-odd", f[1], f[0]));
            ops.push_back(patterns::dot(*grid, f[0], f[1], s[1], "residual"));
            options.withOcc(Occ::STANDARD).withMaxStreams(2);
            break;
        case WorkloadKind::Fem:
            // Assembly-flavored mix: map, stencil, reduce, host scalar op.
            ops.push_back(makeMap(*grid, "assemble", f[0], f[1], s[0]));
            ops.push_back(makeStencil(*grid, "apply", f[1], f[2]));
            ops.push_back(patterns::dot(*grid, f[2], f[0], s[1], "energy"));
            {
                auto x = s[0];
                auto y = s[1];
                ops.push_back(Container::scalarOp<double>(
                    "relax", bk, {x, y}, {x}, [x, y]() mutable {
                        x.set(0.5 * x.hostValue() +
                              y.hostValue() / (1.0 + std::abs(y.hostValue())));
                    }));
            }
            options.withOcc(Occ::EXTENDED).withMaxStreams(4);
            break;
    }

    out.request.tenant = desc.tenant;
    out.request.name = to_string(desc.kind) + "#" + std::to_string(desc.index);
    out.request.options = options;
    out.request.runs = desc.runs;
    out.request.arrival = desc.arrival;
    return out;
}

std::vector<double> snapshot(BuiltJob& job)
{
    std::vector<double> out;
    for (auto& f : job.fields) {
        f.updateHost();
        job.desc.dim.forEach([&](const index_3d& g) { out.push_back(f.hVal(g)); });
    }
    for (auto& s : job.scalars) {
        out.push_back(s.hostValue());
    }
    return out;
}

}  // namespace neon::service
