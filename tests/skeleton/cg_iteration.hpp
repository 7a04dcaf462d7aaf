#pragma once
// The eight containers of one solver::cgSolve iteration (updateP, the
// Laplacian apply, p.Ap, alpha, the x and r updates, r.r, beta) over a
// 64^3 Poisson problem on dry-run simulated A100s. Tests count the ops and
// heap allocations of cached runs of this skeleton.

#include <array>
#include <variant>
#include <vector>

#include "dgrid/dfield.hpp"
#include "dgrid/dgrid.hpp"
#include "patterns/blas.hpp"
#include "poisson/poisson.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::skeleton::testing {

inline set::Backend dryA100s(int nDev)
{
    sys::SimConfig cfg = sys::SimConfig::dgxA100Like();
    cfg.dryRun = true;
    return set::Backend::make(set::BackendSpec::simGpu(nDev, cfg));
}

struct CgIteration
{
    using Field = dgrid::DField<double>;
    using Scalar = set::GlobalScalar<double>;

    static constexpr index_3d kDim{64, 64, 64};

    dgrid::DGrid grid;
    Field        x, r, p, Ap;
    Scalar       rsold, rsnew, pAp, alpha, beta;

    explicit CgIteration(const set::Backend& backend)
        : grid(backend, kDim, Stencil::laplace7()),
          x(grid.newField<double>("cg.x", 1, 0.0)),
          r(grid.newField<double>("cg.r", 1, 0.0)),
          p(grid.newField<double>("cg.p", 1, 0.0)),
          Ap(grid.newField<double>("cg.Ap", 1, 0.0)),
          rsold(backend, "cg.rsold", 1.0),
          rsnew(backend, "cg.rsnew", 1.0),
          pAp(backend, "cg.pAp", 1.0),
          alpha(backend, "cg.alpha", 0.0),
          beta(backend, "cg.beta", 0.0)
    {
    }

    /// cgSolve's loop body, in its order.
    [[nodiscard]] std::vector<set::Container> containers() const
    {
        Scalar rso = rsold;
        Scalar rsn = rsnew;
        Scalar pap = pAp;
        Scalar al = alpha;
        Scalar be = beta;
        return {
            patterns::xpby(grid, r, beta, p, "cg.updateP"),
            poisson::makeLaplacianApply(grid, p, Ap),
            patterns::dot(grid, p, Ap, pAp, "cg.pAp"),
            set::Container::scalarOp<double>(
                "cg.alpha", grid.backend(), {rso, pap}, {al},
                [rso, pap, al]() mutable { al.set(rso.hostValue() / pap.hostValue()); }),
            patterns::axpy(grid, alpha, p, x, "cg.x+=ap"),
            patterns::axmy(grid, alpha, Ap, r, "cg.r-=aAp"),
            patterns::norm2Sq(grid, r, rsnew, "cg.rsnew"),
            set::Container::scalarOp<double>("cg.beta", grid.backend(), {rsn, rso}, {be, rso},
                                             [rsn, rso, be]() mutable {
                                                 be.set(rsn.hostValue() / rso.hostValue());
                                                 rso.set(rsn.hostValue());
                                             }),
        };
    }

    [[nodiscard]] static SequenceOptions options()
    {
        return SequenceOptions().withName("cg.iter").withOcc(Occ::STANDARD);
    }
};

/// Counts enqueued ops by kind, and the waits and records of scalar tasks
/// (reduce combine, scalarOp) enqueued on a device other than 0.
class OpCounter final : public sys::EnqueueHook
{
   public:
    explicit OpCounter(const Graph& graph) : mGraph(graph) {}

    void onEnqueue(const sys::Stream& stream, const sys::Op& op) override
    {
        const sys::OpKind kind = sys::kindOf(op);
        ++mByKind[static_cast<size_t>(kind)];
        if (kind != sys::OpKind::Wait && kind != sys::OpKind::Record) {
            return;
        }
        const int node = std::visit([](const auto& o) { return o.attr.containerId; }, op);
        if (node >= 0 && mGraph.node(node).kind() == set::Container::Kind::ScalarOp &&
            stream.device().id() != 0) {
            ++mScalarSyncOffRoot;
        }
    }

    [[nodiscard]] int count(sys::OpKind kind) const { return mByKind[static_cast<size_t>(kind)]; }
    [[nodiscard]] int total() const
    {
        int n = 0;
        for (const int c : mByKind) {
            n += c;
        }
        return n;
    }
    [[nodiscard]] int scalarSyncOffRoot() const { return mScalarSyncOffRoot; }

   private:
    const Graph&       mGraph;
    std::array<int, 5> mByKind{};
    int                mScalarSyncOffRoot = 0;
};

}  // namespace neon::skeleton::testing
