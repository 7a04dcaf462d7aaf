#include "analysis/access_model.hpp"

#include <algorithm>

namespace neon::analysis {

std::string to_string(Part p)
{
    switch (p) {
        case Part::Internal: return "int";
        case Part::Boundary: return "bdr";
        case Part::HaloLo: return "halo-";
        case Part::HaloHi: return "halo+";
        case Part::Partial: return "partial";
        case Part::Global: return "global";
    }
    return "?";
}

std::string to_string(const Segment& s, const std::string& fieldName)
{
    std::string out = fieldName.empty() ? "uid" + std::to_string(s.uid) : fieldName;
    out += "." + to_string(s.part);
    if (s.dev >= 0) {
        out += "@d" + std::to_string(s.dev);
    }
    return out;
}

namespace {

void addUnique(std::vector<Segment>& v, Segment s)
{
    if (std::find(v.begin(), v.end(), s) == v.end()) {
        v.push_back(s);
    }
}

/// Field parts touched by one access of a Compute node on its own device.
void fieldParts(std::vector<Segment>& out, const MetaAccess& a, DataView view, int dev,
                int devCount)
{
    if (a.access == Access::READ && a.compute == Compute::STENCIL) {
        // A stencil neighbourhood spills across the view split: internal
        // cells border boundary cells and boundary cells border the halo.
        addUnique(out, {a.uid, dev, Part::Internal});
        addUnique(out, {a.uid, dev, Part::Boundary});
        if (view != DataView::INTERNAL && devCount > 1) {
            // Claim only the halo halves a neighbour actually feeds
            // (MetaAccess::haloLoFed/haloHiFed, derived from HaloOps::peers).
            // Empty vectors mean the feed info is unknown (hand-built metas):
            // fall back to the dense rule — every interior side has a
            // neighbour, edge devices only one.
            const auto idx = static_cast<size_t>(dev);
            const bool loFed = idx < a.haloLoFed.size() ? a.haloLoFed[idx] != 0 : dev > 0;
            const bool hiFed =
                idx < a.haloHiFed.size() ? a.haloHiFed[idx] != 0 : dev + 1 < devCount;
            if (loFed) {
                addUnique(out, {a.uid, dev, Part::HaloLo});
            }
            if (hiFed) {
                addUnique(out, {a.uid, dev, Part::HaloHi});
            }
        }
        return;
    }
    // Cell-local access: exactly the iterated view partition.
    if (view == DataView::INTERNAL) {
        addUnique(out, {a.uid, dev, Part::Internal});
    } else if (view == DataView::BOUNDARY) {
        addUnique(out, {a.uid, dev, Part::Boundary});
    } else {
        addUnique(out, {a.uid, dev, Part::Internal});
        addUnique(out, {a.uid, dev, Part::Boundary});
    }
}

}  // namespace

AccessSets segmentsFor(const ContainerMeta& meta, int dev, int devCount)
{
    AccessSets sets;

    if (meta.kind == MetaNodeKind::Halo) {
        // The op on `dev` reads dev's boundary cells and writes them into
        // the neighbours' halo buffers. A device with no receiving peers
        // (zero-count segment lists toward both sides) performs no work, so
        // it claims nothing — unless the peer info is absent (hand-built
        // metas), where the dense read claim is kept as a safe default.
        for (const auto& a : meta.accesses) {
            const bool havePeers = dev >= 0 && dev < static_cast<int>(meta.haloPeers.size());
            if (!havePeers || !meta.haloPeers[static_cast<size_t>(dev)].empty()) {
                addUnique(sets.reads, {a.uid, dev, Part::Boundary});
            }
            if (havePeers) {
                for (int p : meta.haloPeers[static_cast<size_t>(dev)]) {
                    // dev fills the half of p's halo that faces it.
                    addUnique(sets.writes,
                              {a.uid, p, dev < p ? Part::HaloLo : Part::HaloHi});
                }
            }
        }
        return sets;
    }

    if (meta.kind == MetaNodeKind::ScalarOp) {
        // Host fn on device 0's stream. Reads see the global value and (for
        // the reduce combine) every device's partials; writes broadcast the
        // global value.
        for (const auto& a : meta.accesses) {
            if (a.access == Access::READ) {
                addUnique(sets.reads, {a.uid, -1, Part::Global});
                for (int d = 0; d < devCount; ++d) {
                    addUnique(sets.reads, {a.uid, d, Part::Partial});
                }
            } else {
                addUnique(sets.writes, {a.uid, -1, Part::Global});
            }
        }
        return sets;
    }

    for (const auto& a : meta.accesses) {
        if (a.scalar) {
            if (a.access == Access::WRITE) {
                // Reduce kernels write their device's partial slots.
                addUnique(sets.writes, {a.uid, dev, Part::Partial});
            } else {
                addUnique(sets.reads, {a.uid, -1, Part::Global});
            }
            continue;
        }
        fieldParts(a.access == Access::READ ? sets.reads : sets.writes, a, meta.view, dev,
                   devCount);
    }
    return sets;
}

}  // namespace neon::analysis
