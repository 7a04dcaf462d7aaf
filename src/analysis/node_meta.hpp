#pragma once
// Bridge from skeleton graph nodes to the core-typed ContainerMeta the
// analysis reasons about (neon::analysis). The Skeleton registers one meta
// map per run window with the race session; the race detector resolves
// each enqueued op's containerId through it to obtain read/write segment
// sets.

#include <memory>

#include "analysis/access_model.hpp"
#include "skeleton/graph.hpp"

namespace neon::analysis {

/// Distill one graph node's container (access records, kind, view, halo
/// receiver lists) into core types.
ContainerMeta metaFor(const skeleton::GraphNode& node, int devCount);

/// Meta for every alive node of `graph`, keyed by node id.
std::shared_ptr<const ContainerMetaMap> metaMapFor(const skeleton::Graph& graph, int devCount);

}  // namespace neon::analysis
