#pragma once
// Matrix-free conjugate-gradient solver (paper Listing 3, §VI-B/§VI-C).
//
// The operator A is supplied as a factory producing a stencil Container
// `out = A * in`, so the same solver drives the finite-difference Poisson
// operator (7-point) and the finite-element elasticity operator (27-point),
// on dense or sparse grids.
//
// Following the paper (§VI-B), the UpdateP map runs at the *start* of each
// iteration, right before the stencil, which enables the two-way extended
// OCC to overlap the halo update with internal map/stencil/reduce work.

#include <cmath>
#include <functional>
#include <string>

#include "patterns/blas.hpp"
#include "set/scalar.hpp"
#include "skeleton/skeleton.hpp"

namespace neon::solver {

struct CgOptions
{
    int    maxIterations = 1000;
    double tolerance = 1e-9;  ///< on ||r|| / ||b||
    Occ    occ = Occ::NONE;
    /// Read the residual (host sync) every N iterations.
    int checkEvery = 1;
    /// Run exactly maxIterations with no convergence checks. Required for
    /// dry-run benchmarking (no data is computed, so residuals are
    /// meaningless) and useful for fixed-work performance measurements.
    bool fixedIterations = false;
};

struct CgResult
{
    int    iterations = 0;
    double relativeResidual = 0.0;
    bool   converged = false;
};

/// Solve A x = b. `makeApply(in, out)` returns the Container computing
/// out = A*in; x holds the initial guess on entry and the solution on exit
/// (device side; call x.updateHost() to read it).
template <typename Grid, typename FieldT, typename T>
CgResult cgSolve(const Grid&                                          grid,
                 const std::function<set::Container(FieldT, FieldT)>& makeApply, FieldT x,
                 FieldT b, const CgOptions& options = {})
{
    using set::Container;
    using set::GlobalScalar;

    auto backend = grid.backend();
    const int card = x.cardinality();

    FieldT r = grid.template newField<T>("cg.r", card, T{});
    FieldT p = grid.template newField<T>("cg.p", card, T{});
    FieldT Ap = grid.template newField<T>("cg.Ap", card, T{});

    GlobalScalar<T> rsold(backend, "cg.rsold", T{});
    GlobalScalar<T> rsnew(backend, "cg.rsnew", T{});
    GlobalScalar<T> pAp(backend, "cg.pAp", T{});
    GlobalScalar<T> alpha(backend, "cg.alpha", T{});
    GlobalScalar<T> beta(backend, "cg.beta", T{});
    GlobalScalar<T> bNorm(backend, "cg.bNorm", T{});

    // --- init: r = b - A x ; rsold = r.r ; bNorm = b.b -------------------
    auto applyX = makeApply(x, Ap);
    auto initR = patterns::componentMap("cg.initR", grid, card, [b, Ap, r](auto& l) mutable {
        auto bp = l.load(b, Access::READ);
        auto ap = l.load(Ap, Access::READ);
        auto rp = l.load(r, Access::WRITE);
        return [=](const auto& cell, auto card) mutable {
            for (int c = 0; c < card; ++c) {
                rp(cell, c) = bp(cell, c) - ap(cell, c);
            }
        };
    });
    auto rsInit = patterns::norm2Sq(grid, r, rsold, "cg.rs0");
    auto bbInit = patterns::norm2Sq(grid, b, bNorm, "cg.bb");

    skeleton::Skeleton init(backend);
    init.sequence({applyX, initR, rsInit, bbInit},
                  skeleton::SequenceOptions().withName("cg.init").withOcc(options.occ));
    init.run();
    init.sync();
    beta.set(T{});

    const double bb = static_cast<double>(bNorm.hostValue());
    const double bScale = bb > 0 ? std::sqrt(bb) : 1.0;

    CgResult result;
    if (!options.fixedIterations) {
        result.relativeResidual = std::sqrt(static_cast<double>(rsold.hostValue())) / bScale;
        if (result.relativeResidual <= options.tolerance) {
            result.converged = true;
            return result;
        }
    }

    // --- one CG iteration as a skeleton sequence (Listing 3) -------------
    auto updateP = patterns::xpby(grid, r, beta, p, "cg.updateP");
    auto applyP = makeApply(p, Ap);
    auto dotPAp = patterns::dot(grid, p, Ap, pAp, "cg.pAp");
    auto alphaOp = Container::scalarOp<T>(
        "cg.alpha", backend, {rsold, pAp}, {alpha}, [rsold, pAp, alpha]() mutable {
            alpha.set(rsold.hostValue() / pAp.hostValue());
        });
    auto xUpdate = patterns::axpy(grid, alpha, p, x, "cg.x+=ap");
    auto rUpdate = patterns::axmy(grid, alpha, Ap, r, "cg.r-=aAp");
    auto dotRR = patterns::norm2Sq(grid, r, rsnew, "cg.rsnew");
    auto betaOp = Container::scalarOp<T>(
        "cg.beta", backend, {rsnew, rsold}, {beta, rsold}, [rsnew, rsold, beta]() mutable {
            beta.set(rsnew.hostValue() / rsold.hostValue());
            rsold.set(rsnew.hostValue());
        });

    skeleton::Skeleton iter(backend);
    iter.sequence({updateP, applyP, dotPAp, alphaOp, xUpdate, rUpdate, dotRR, betaOp},
                  skeleton::SequenceOptions().withName("cg.iter").withOcc(options.occ));

    for (int it = 1; it <= options.maxIterations; ++it) {
        iter.run();
        result.iterations = it;
        if (options.fixedIterations) {
            continue;
        }
        if (it % options.checkEvery == 0 || it == options.maxIterations) {
            iter.sync();
            result.relativeResidual =
                std::sqrt(static_cast<double>(rsnew.hostValue())) / bScale;
            if (result.relativeResidual <= options.tolerance) {
                result.converged = true;
                break;
            }
        }
    }
    iter.sync();
    return result;
}

}  // namespace neon::solver
