#ifndef PAW_WORKFLOW_VIEW_H_
#define PAW_WORKFLOW_VIEW_H_

/// \file view.h
/// \brief Prefix-defined views of a specification (paper Sec. 2).
///
/// Given a prefix of the expansion hierarchy, the view is the simple
/// workflow obtained by expanding the root and recursively replacing every
/// composite module whose expansion lies in the prefix by the contents of
/// that expansion. Edges into a replaced composite are rerouted to the
/// entry modules of its expansion, edges out of it to the exit modules —
/// this is what turns the W1-level edge M1 -> M2 of Fig. 1 into the
/// full-expansion edge M8 -> M9.

#include <map>
#include <string>
#include <vector>

#include "src/common/status.h"
#include "src/graph/digraph.h"
#include "src/workflow/hierarchy.h"
#include "src/workflow/spec.h"

namespace paw {

/// \brief A flattened view of a specification under a prefix.
///
/// Nodes are the *visible* modules: atomic modules of expanded workflows,
/// plus composite modules whose expansion is outside the prefix (shown as
/// collapsed boxes), plus the root's I/O nodes.
class SpecView {
 public:
  /// \brief The specification this view renders.
  const Specification& spec() const { return *spec_; }

  /// \brief The prefix that defines this view.
  const Prefix& prefix() const { return prefix_; }

  /// \brief Number of visible modules.
  NodeIndex num_visible() const { return graph_.num_nodes(); }

  /// \brief ModuleId of visible node `i`.
  ModuleId visible(NodeIndex i) const {
    return visible_[static_cast<size_t>(i)];
  }

  /// \brief All visible modules in deterministic flattening order.
  const std::vector<ModuleId>& visible_modules() const { return visible_; }

  /// \brief Node index of module `m`; NotFound if not visible.
  Result<NodeIndex> IndexOf(ModuleId m) const;

  /// \brief The dataflow graph over visible nodes.
  const Digraph& graph() const { return graph_; }

  /// \brief Labels carried by visible edge `u -> v` (empty if no edge).
  const std::vector<std::string>& EdgeLabels(NodeIndex u, NodeIndex v) const;

  /// \brief True iff visible node `i` is a collapsed composite.
  bool IsCollapsed(NodeIndex i) const;

  /// \brief Atomic modules represented by visible node `i`: itself when
  /// atomic/IO, otherwise every atomic module in the collapsed subtree.
  std::vector<ModuleId> SubsumedAtomics(NodeIndex i) const;

  /// \brief Graphviz rendering with module codes and edge labels.
  std::string ToDot(const std::string& graph_name = "view") const;

 private:
  friend Result<SpecView> ExpandPrefix(const Specification&,
                                       const ExpansionHierarchy&,
                                       const Prefix&);

  const Specification* spec_ = nullptr;
  Prefix prefix_;
  std::vector<ModuleId> visible_;
  std::map<ModuleId, NodeIndex> index_of_;
  Digraph graph_;
  std::map<std::pair<NodeIndex, NodeIndex>, std::vector<std::string>>
      edge_labels_;
};

/// \brief Expands `prefix` (which must be valid for `hierarchy`) into a
/// flattened view.
Result<SpecView> ExpandPrefix(const Specification& spec,
                              const ExpansionHierarchy& hierarchy,
                              const Prefix& prefix);

/// \brief The visible modules of `ExpandPrefix(spec, hierarchy, prefix)`
/// in the same order, without building the view's graph. `prefix` must be
/// valid.
std::vector<ModuleId> VisibleModules(const Specification& spec,
                                     const Prefix& prefix);

/// \brief Convenience: the fully expanded view.
Result<SpecView> FullExpansion(const Specification& spec,
                               const ExpansionHierarchy& hierarchy);

}  // namespace paw

#endif  // PAW_WORKFLOW_VIEW_H_
