#pragma once
// Segment model: the unit of data the analysis reasons about. A partitioned
// field contributes three segments per device (internal cells, boundary
// cells, halo/ghost cells); a GlobalScalar contributes one global segment
// (host value + device mirrors, written as a broadcast) and one coarse
// partial segment per device (the reduction slots). Two ops conflict iff
// they touch a common segment and at least one writes it.
//
// Granularity notes (docs/analysis.md):
//  - Partial is per (uid, device), deliberately ignoring the per-view slot:
//    the two-way OCC reduce split writes slot 0 and 1 of the same device
//    and the paper mandates a WaW edge between the halves — slot-precise
//    segments would declare that edge spurious.
//  - A stencil's INTERNAL half reads internal + boundary cells (its
//    neighbourhood stays on-device); any other stencil view also reads the
//    halo when more than one device exists.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/types.hpp"

namespace neon::analysis {

/// One access of a container distilled to core types (a mirror of
/// set::DataAccess without the set-layer halo handle).
struct MetaAccess
{
    uint64_t    uid = 0;
    Access      access = Access::READ;
    Compute     compute = Compute::MAP;
    bool        scalar = false;       ///< GlobalScalar (global/partial segments)
    bool        stencilHalo = false;  ///< stencil read of a halo-carrying field
    std::string name;
    /// Stencil halo reads only: per device, whether the lower/upper halo
    /// half is actually fed by a neighbour (derived from HaloOps::peers —
    /// segment-list fields like BField can have empty boundaries toward a
    /// neighbour, and then no segments ever land in that halo half). Empty
    /// vectors mean "unknown": consumers fall back to the dense ±1 rule.
    std::vector<uint8_t> haloLoFed;
    std::vector<uint8_t> haloHiFed;
};

enum class MetaNodeKind : uint8_t
{
    Compute,
    Halo,
    ScalarOp,
};

/// What one graph node does, as needed to derive per-device read/write
/// segment sets (node_meta.hpp builds it from a skeleton graph node).
struct ContainerMeta
{
    std::string             label;
    MetaNodeKind            kind = MetaNodeKind::Compute;
    DataView                view = DataView::STANDARD;
    Compute                 pattern = Compute::MAP;
    std::vector<MetaAccess> accesses;
    /// Halo nodes only: per sending device, the receiving neighbour devices.
    std::vector<std::vector<int>> haloPeers;
};

/// Keyed by skeleton graph-node id (== OpAttribution::containerId).
using ContainerMetaMap = std::unordered_map<int, ContainerMeta>;

enum class Part : uint8_t
{
    Internal,  ///< field: internal cells of one device
    Boundary,  ///< field: boundary cells of one device
    /// Field: the halo/ghost layer filled by the *lower* neighbour (d-1).
    /// Halo halves are separate segments because the two neighbours write
    /// disjoint slices concurrently — one coarse halo segment would turn
    /// every multi-peer halo update into a spurious WaW.
    HaloLo,
    HaloHi,   ///< field: halo layer filled by the upper neighbour (d+1)
    Partial,  ///< scalar: reduction partials of one device
    Global,   ///< scalar: host value + all device mirrors
};

std::string to_string(Part p);

struct Segment
{
    uint64_t uid = 0;
    int      dev = -1;  ///< -1 for Part::Global
    Part     part = Part::Internal;

    bool operator==(const Segment&) const = default;
};

struct SegmentHash
{
    size_t operator()(const Segment& s) const
    {
        size_t h = std::hash<uint64_t>{}(s.uid);
        h ^= std::hash<int>{}(s.dev) + 0x9e3779b9 + (h << 6) + (h >> 2);
        h ^= static_cast<size_t>(s.part) + 0x9e3779b9 + (h << 6) + (h >> 2);
        return h;
    }
};

std::string to_string(const Segment& s, const std::string& fieldName = "");

struct AccessSets
{
    std::vector<Segment> reads;
    std::vector<Segment> writes;
};

/// Read/write segments of node `meta`'s op on device `dev`.
/// Halo nodes read their device's boundary and write the neighbours'
/// halos (per the halo segment list); ScalarOps run on device 0 and read
/// global + every partial, write global; Compute nodes map their field
/// accesses through view/pattern and their scalar accesses through
/// global/partial.
AccessSets segmentsFor(const ContainerMeta& meta, int dev, int devCount);

}  // namespace neon::analysis
