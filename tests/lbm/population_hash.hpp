#pragma once
// FNV-1a hash of every population of an LBM field, for golden tests that
// pin a solver's output bits.

#include <cstdint>
#include <cstring>

#include "core/index3d.hpp"

namespace neon::lbm {

/// 64-bit FNV-1a over the bytes of every population (host mirror; call
/// after sync() + updateHost()): cells in index_3d::forEach order, x
/// fastest, then directions 0 ... q-1 of each cell.
template <typename Field>
uint64_t populationHash(const Field& f, const index_3d& dim, int q)
{
    uint64_t hash = 14695981039346656037ULL;
    dim.forEach([&](const index_3d& g) {
        for (int i = 0; i < q; ++i) {
            const auto    v = f.hVal(g, i);
            unsigned char bytes[sizeof(v)];
            std::memcpy(bytes, &v, sizeof(v));
            for (const unsigned char b : bytes) {
                hash = (hash ^ b) * 1099511628211ULL;
            }
        }
    });
    return hash;
}

}  // namespace neon::lbm
