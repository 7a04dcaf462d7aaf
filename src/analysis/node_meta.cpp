#include "analysis/node_meta.hpp"

namespace neon::analysis {

ContainerMeta metaFor(const skeleton::GraphNode& node, int devCount)
{
    ContainerMeta m;
    m.label = node.label();
    m.view = node.view;
    m.pattern = node.pattern();
    switch (node.kind()) {
        case set::Container::Kind::Compute: m.kind = MetaNodeKind::Compute; break;
        case set::Container::Kind::Halo: m.kind = MetaNodeKind::Halo; break;
        case set::Container::Kind::ScalarOp: m.kind = MetaNodeKind::ScalarOp; break;
    }
    std::shared_ptr<const set::HaloOps> halo;
    for (const auto& a : node.container.accesses()) {
        MetaAccess ma{a.uid, a.access, a.compute, a.scalar, a.halo != nullptr, a.name, {}, {}};
        if (a.halo != nullptr) {
            // Which halo halves are actually fed: device d's lower half
            // receives segments iff d-1 lists d as a peer (and symmetrically
            // for the upper half). Segment-list fields (BField) can have
            // empty boundaries toward a neighbour, so this is narrower than
            // the dense ±1 rule.
            ma.haloLoFed.resize(static_cast<size_t>(devCount), 0);
            ma.haloHiFed.resize(static_cast<size_t>(devCount), 0);
            for (int d = 0; d < devCount; ++d) {
                for (int p : a.halo->peers(d)) {
                    if (p < 0 || p >= devCount) {
                        continue;
                    }
                    // d fills the half of p's halo that faces it (the same
                    // orientation rule segmentsFor uses for Halo nodes).
                    auto& fed = d < p ? ma.haloLoFed : ma.haloHiFed;
                    fed[static_cast<size_t>(p)] = 1;
                }
            }
        }
        m.accesses.push_back(std::move(ma));
        if (a.halo != nullptr) {
            halo = a.halo;
        }
    }
    if (m.kind == MetaNodeKind::Halo && halo != nullptr) {
        m.haloPeers.resize(static_cast<size_t>(devCount));
        for (int d = 0; d < devCount; ++d) {
            m.haloPeers[static_cast<size_t>(d)] = halo->peers(d);
        }
    }
    return m;
}

std::shared_ptr<const ContainerMetaMap> metaMapFor(const skeleton::Graph& graph, int devCount)
{
    auto map = std::make_shared<ContainerMetaMap>();
    for (int id = 0; id < graph.nodeCount(); ++id) {
        if (graph.node(id).alive) {
            (*map)[id] = metaFor(graph.node(id), devCount);
        }
    }
    return map;
}

}  // namespace neon::analysis
