#ifndef PAW_WORKFLOW_HIERARCHY_H_
#define PAW_WORKFLOW_HIERARCHY_H_

/// \file hierarchy.h
/// \brief The expansion hierarchy (paper Fig. 3) and its prefixes.
///
/// Tau expansions arrange the workflows of a specification into a rooted
/// tree. A *prefix* of that tree (a subtree containing the root, closed
/// under parents) defines a view of the specification: workflows inside the
/// prefix are expanded, everything below stays collapsed inside composite
/// modules. Access views (paper Sec. 2) are level-maximal prefixes.

#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "src/common/ids.h"
#include "src/common/status.h"
#include "src/workflow/spec.h"

namespace paw {

/// \brief A prefix of the expansion hierarchy: the set of expanded
/// workflows. Always contains the root of a valid hierarchy.
using Prefix = std::set<WorkflowId>;

/// \brief Rooted tree over the workflows of a specification.
class ExpansionHierarchy {
 public:
  /// \brief Builds the hierarchy of a validated specification.
  static ExpansionHierarchy Build(const Specification& spec);

  /// \brief The root workflow.
  WorkflowId root() const { return root_; }

  /// \brief Parent workflow (invalid for the root).
  WorkflowId Parent(WorkflowId w) const;

  /// \brief Child workflows in module-insertion order.
  const std::vector<WorkflowId>& Children(WorkflowId w) const;

  /// \brief Depth of `w` (root = 0).
  int Depth(WorkflowId w) const;

  /// \brief Height of the whole tree (single workflow = 0).
  int Height() const;

  /// \brief Number of workflows.
  int size() const { return static_cast<int>(parent_.size()); }

  /// \brief True iff `prefix` contains the root and is parent-closed.
  bool IsValidPrefix(const Prefix& prefix) const;

  /// \brief Adds all ancestors of the members of `prefix` (and the root),
  /// producing the smallest valid prefix containing `prefix`.
  Prefix Close(const Prefix& prefix) const;

  /// \brief The trivial prefix `{root}`.
  Prefix RootPrefix() const { return Prefix{root_}; }

  /// \brief The full prefix containing every workflow.
  Prefix FullPrefix() const;

  /// \brief Every valid prefix, smallest first (by size, then lexicographic).
  ///
  /// Exponential in the number of workflows; intended for the small
  /// hierarchies of specifications (the keyword-search lattice). Returns
  /// FailedPrecondition when the hierarchy has more than `max_workflows`
  /// nodes.
  Result<std::vector<Prefix>> EnumeratePrefixes(int max_workflows = 20) const;

  /// \brief The number of valid prefixes, i.e. `EnumeratePrefixes().size()`,
  /// saturated at `cap`.
  ///
  /// O(size()) without enumerating anything: the prefixes containing a
  /// workflow number the product over its children of (1 + the child's
  /// count). Lets callers size the lattice before paying for it.
  uint64_t CountPrefixes(
      uint64_t cap = std::numeric_limits<uint64_t>::max()) const;

  /// \brief The maximal prefix all of whose workflows have
  /// `required_level <= level`: the access view of a principal (Sec. 2).
  Prefix AccessPrefix(const Specification& spec, AccessLevel level) const;

 private:
  WorkflowId root_;
  std::vector<WorkflowId> parent_;                 // by workflow id
  std::vector<std::vector<WorkflowId>> children_;  // by workflow id
  std::vector<int> depth_;                         // by workflow id
};

}  // namespace paw

#endif  // PAW_WORKFLOW_HIERARCHY_H_
