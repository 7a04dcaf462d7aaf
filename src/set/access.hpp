#pragma once
// Access records produced by the Loader during container parsing
// (paper §IV-B3: the Loader stores information about all the Multi-GPU data
// used in a Container, from which the dependency graph is built).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/types.hpp"
#include "sys/op.hpp"

namespace neon::sys {
class Stream;
}

namespace neon::set {

/// Interface a Field implements so the Skeleton can materialize halo-update
/// graph nodes for it (paper §IV-C2 "haloUpdate asynchronous mechanism").
class HaloOps
{
   public:
    virtual ~HaloOps() = default;

    /// Enqueue on `stream` (bound to device `dev`) the transfers that send
    /// this device's boundary data into its neighbours' halo buffers,
    /// attributed to `attr`.
    virtual void enqueueHaloSend(int dev, sys::Stream& stream,
                                 const sys::OpAttribution& attr = {}) const = 0;

    [[nodiscard]] virtual uint64_t    uid() const = 0;
    [[nodiscard]] virtual std::string name() const = 0;
    [[nodiscard]] virtual int         devCount() const = 0;

    /// Devices that receive data when device `dev` runs its halo send —
    /// the write set of the halo-update op on `dev` (neon::analysis).
    /// Default: the 1-D partition neighbours; implementations with an
    /// explicit segment list narrow it to the segments actually present.
    [[nodiscard]] virtual std::vector<int> peers(int dev) const
    {
        std::vector<int> out;
        if (dev > 0) {
            out.push_back(dev - 1);
        }
        if (dev + 1 < devCount()) {
            out.push_back(dev + 1);
        }
        return out;
    }
};

/// One recorded use of a Multi-GPU data object inside a Container.
struct DataAccess
{
    uint64_t    uid = 0;
    Access      access = Access::READ;
    Compute     compute = Compute::MAP;
    double      bytesPerItem = 0.0;  ///< contribution to the kernel cost model
    std::string name;
    /// Non-null iff this is a stencil read of a halo-carrying field.
    std::shared_ptr<const HaloOps> halo;
    /// True for GlobalScalar accesses: the data is a device-mirrored scalar
    /// with per-device reduction partials, not a partitioned field
    /// (neon::analysis segments them differently).
    bool scalar = false;
};

using AccessList = std::vector<DataAccess>;

}  // namespace neon::set
