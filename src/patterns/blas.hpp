#pragma once
// Grid-generic BLAS-like containers with a unified interface for every grid
// type (paper §III: "Neon also offers a set of well-optimized standard BLAS
// operations (e.g., dot product) with a unified interface for different
// grid types to facilitate rapid prototyping").
//
// All functions return Containers to be composed in a Skeleton sequence.
// Scalars are GlobalScalar handles so a skeleton built once can run many
// iterations with per-iteration values (CG's alpha/beta).

#include <string>
#include <type_traits>

#include "set/container.hpp"
#include "set/loader.hpp"
#include "set/scalar.hpp"

namespace neon::patterns {

/// Map container whose body loops over a field's components: the loading
/// lambda returns `body(cell, card)`, where `card` is
/// std::integral_constant<int, 1> for scalar fields and the int cardinality
/// otherwise. The compile-time 1 folds the component loop away; with a
/// runtime trip count GCC keeps the one-iteration loop on every cell and
/// the cell loop no longer vectorizes.
template <typename Grid, typename LoadingLambda>
set::Container componentMap(std::string name, const Grid& grid, int card, LoadingLambda load)
{
    auto build = [&](auto n) {
        return grid.newContainer(std::move(name), [load, n](auto& l) mutable {
            return [body = load(l), n](const auto& cell) mutable { body(cell, n); };
        });
    };
    return card == 1 ? build(std::integral_constant<int, 1>{}) : build(card);
}

/// Reduction counterpart of componentMap: `load` returns
/// `body(cell, card, T& acc)`, folded into `result` by reduceFactory.
template <typename Grid, typename T, typename LoadingLambda>
set::Container componentReduce(std::string name, const Grid& grid, set::GlobalScalar<T> result,
                               int card, LoadingLambda load)
{
    auto build = [&](auto n) {
        return set::Container::reduceFactory(
            std::move(name), grid, result, [load, n](auto& l) mutable {
                return [body = load(l), n](const auto& cell, T& acc) { body(cell, n, acc); };
            });
    };
    return card == 1 ? build(std::integral_constant<int, 1>{}) : build(card);
}

/// f[i] = value for all components.
template <typename Grid, typename Field, typename T>
set::Container setValue(const Grid& grid, Field f, T value, std::string name = "set")
{
    return componentMap(std::move(name), grid, f.cardinality(), [f, value](auto& l) mutable {
        auto fp = l.load(f, Access::WRITE);
        return [=](const auto& cell, auto card) mutable {
            for (int c = 0; c < card; ++c) {
                fp(cell, c) = value;
            }
        };
    });
}

/// dst[i] = src[i].
template <typename Grid, typename Field>
set::Container copy(const Grid& grid, Field src, Field dst, std::string name = "copy")
{
    return componentMap(std::move(name), grid, src.cardinality(), [src, dst](auto& l) mutable {
        auto s = l.load(src, Access::READ);
        auto d = l.load(dst, Access::WRITE);
        return [=](const auto& cell, auto card) mutable {
            for (int c = 0; c < card; ++c) {
                d(cell, c) = s(cell, c);
            }
        };
    });
}

/// y[i] += alpha * x[i]   (alpha is a device-resident global scalar, read
/// once per cell).
template <typename Grid, typename Field, typename T>
set::Container axpy(const Grid& grid, set::GlobalScalar<T> alpha, Field x, Field y,
                    std::string name = "axpy")
{
    return componentMap(std::move(name), grid, x.cardinality(), [alpha, x, y](auto& l) mutable {
        auto a = l.load(alpha, Access::READ);
        auto xp = l.load(x, Access::READ);
        auto yp = l.load(y, Access::WRITE);
        return [=](const auto& cell, auto card) mutable {
            const T av = a();
            for (int c = 0; c < card; ++c) {
                yp(cell, c) += av * xp(cell, c);
            }
        };
    });
}

/// y[i] -= alpha * x[i].
template <typename Grid, typename Field, typename T>
set::Container axmy(const Grid& grid, set::GlobalScalar<T> alpha, Field x, Field y,
                    std::string name = "axmy")
{
    return componentMap(std::move(name), grid, x.cardinality(), [alpha, x, y](auto& l) mutable {
        auto a = l.load(alpha, Access::READ);
        auto xp = l.load(x, Access::READ);
        auto yp = l.load(y, Access::WRITE);
        return [=](const auto& cell, auto card) mutable {
            const T av = a();
            for (int c = 0; c < card; ++c) {
                yp(cell, c) -= av * xp(cell, c);
            }
        };
    });
}

/// y[i] = x[i] + beta * y[i]  — the "UpdateP" step of CG (Listing 3).
template <typename Grid, typename Field, typename T>
set::Container xpby(const Grid& grid, Field x, set::GlobalScalar<T> beta, Field y,
                    std::string name = "xpby")
{
    return componentMap(std::move(name), grid, x.cardinality(), [x, beta, y](auto& l) mutable {
        auto b = l.load(beta, Access::READ);
        auto xp = l.load(x, Access::READ);
        auto yp = l.load(y, Access::WRITE);
        return [=](const auto& cell, auto card) mutable {
            const T bv = b();
            for (int c = 0; c < card; ++c) {
                yp(cell, c) = xp(cell, c) + bv * yp(cell, c);
            }
        };
    });
}

/// result = sum_i sum_c x[i,c] * y[i,c].
template <typename Grid, typename Field, typename T>
set::Container dot(const Grid& grid, Field x, Field y, set::GlobalScalar<T> result,
                   std::string name = "dot")
{
    return componentReduce(
        std::move(name), grid, result, x.cardinality(), [x, y](auto& l) mutable {
            auto xp = l.load(x, Access::READ, Compute::REDUCE);
            auto yp = l.load(y, Access::READ, Compute::REDUCE);
            return [=](const auto& cell, auto card, T& acc) {
                for (int c = 0; c < card; ++c) {
                    acc += xp(cell, c) * yp(cell, c);
                }
            };
        });
}

/// result = sum_i sum_c x[i,c]^2  (squared L2 norm).
template <typename Grid, typename Field, typename T>
set::Container norm2Sq(const Grid& grid, Field x, set::GlobalScalar<T> result,
                       std::string name = "norm2sq")
{
    return dot(grid, x, x, result, std::move(name));
}

/// result = max_i max_c |x[i,c]|  (infinity norm). `result` must be a
/// Max-reduction scalar (GlobalScalar ctor with ReduceOp::Max).
template <typename Grid, typename Field, typename T>
set::Container normInf(const Grid& grid, Field x, set::GlobalScalar<T> result,
                       std::string name = "normInf")
{
    NEON_CHECK(result.reduceOp() == set::ReduceOp::Max,
               "normInf requires a Max-reduction scalar");
    return componentReduce(
        std::move(name), grid, result, x.cardinality(), [x, result](auto& l) mutable {
            auto xp = l.load(x, Access::READ, Compute::REDUCE);
            return [=](const auto& cell, auto card, T& acc) {
                for (int c = 0; c < card; ++c) {
                    const T v = xp(cell, c) < T{} ? -xp(cell, c) : xp(cell, c);
                    result.fold(acc, v);
                }
            };
        });
}

}  // namespace neon::patterns
