#include "src/workflow/view.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/graph/dot.h"

namespace paw {
namespace {

/// Recursive flattening helper. Collects visible modules in insertion
/// order, plus rerouted edges with merged label sets.
class Flattener {
 public:
  Flattener(const Specification& spec, const Prefix& prefix)
      : spec_(spec), prefix_(prefix) {}

  struct Boundary {
    std::vector<ModuleId> entries;
    std::vector<ModuleId> exits;
  };

  /// Flattens workflow `w`; returns its visible boundary.
  Boundary FlattenWorkflow(WorkflowId w) {
    const Workflow& wf = spec_.workflow(w);
    std::map<ModuleId, Boundary> boundary_of;
    for (ModuleId mid : wf.modules) {
      const Module& m = spec_.module(mid);
      if (m.kind == ModuleKind::kComposite && prefix_.count(m.expansion)) {
        boundary_of[mid] = FlattenWorkflow(m.expansion);
      } else {
        visible.push_back(mid);
        boundary_of[mid] = Boundary{{mid}, {mid}};
      }
    }
    for (const DataflowEdge& e : wf.edges) {
      for (ModuleId x : boundary_of[e.src].exits) {
        for (ModuleId y : boundary_of[e.dst].entries) {
          AddEdge(x, y, e.labels);
        }
      }
    }
    Boundary b;
    for (ModuleId mid : spec_.EntryModules(w)) {
      const Boundary& mb = boundary_of[mid];
      b.entries.insert(b.entries.end(), mb.entries.begin(),
                       mb.entries.end());
    }
    for (ModuleId mid : spec_.ExitModules(w)) {
      const Boundary& mb = boundary_of[mid];
      b.exits.insert(b.exits.end(), mb.exits.begin(), mb.exits.end());
    }
    return b;
  }

  void AddEdge(ModuleId x, ModuleId y, const std::vector<std::string>& ls) {
    auto& labels = edges[{x, y}];
    for (const std::string& l : ls) {
      if (std::find(labels.begin(), labels.end(), l) == labels.end()) {
        labels.push_back(l);
      }
    }
    if (std::find(edge_order.begin(), edge_order.end(),
                  std::make_pair(x, y)) == edge_order.end()) {
      edge_order.emplace_back(x, y);
    }
  }

  std::vector<ModuleId> visible;
  std::map<std::pair<ModuleId, ModuleId>, std::vector<std::string>> edges;
  std::vector<std::pair<ModuleId, ModuleId>> edge_order;

 private:
  const Specification& spec_;
  const Prefix& prefix_;
};

/// The Flattener's visiting order without the boundaries and edges.
void CollectVisible(const Specification& spec, const Prefix& prefix,
                    WorkflowId w, std::vector<ModuleId>* out) {
  for (ModuleId mid : spec.workflow(w).modules) {
    const Module& m = spec.module(mid);
    if (m.kind == ModuleKind::kComposite && prefix.count(m.expansion)) {
      CollectVisible(spec, prefix, m.expansion, out);
    } else {
      out->push_back(mid);
    }
  }
}

void CollectAtomics(const Specification& spec, WorkflowId w,
                    std::vector<ModuleId>* out) {
  for (ModuleId mid : spec.workflow(w).modules) {
    const Module& m = spec.module(mid);
    if (m.kind == ModuleKind::kComposite) {
      CollectAtomics(spec, m.expansion, out);
    } else {
      out->push_back(mid);
    }
  }
}

}  // namespace

Result<NodeIndex> SpecView::IndexOf(ModuleId m) const {
  auto it = index_of_.find(m);
  if (it == index_of_.end()) {
    return Status::NotFound("module " + spec_->module(m).code +
                            " is not visible in this view");
  }
  return it->second;
}

const std::vector<std::string>& SpecView::EdgeLabels(NodeIndex u,
                                                     NodeIndex v) const {
  static const std::vector<std::string> kEmpty;
  auto it = edge_labels_.find({u, v});
  return it == edge_labels_.end() ? kEmpty : it->second;
}

bool SpecView::IsCollapsed(NodeIndex i) const {
  const Module& m = spec_->module(visible(i));
  return m.kind == ModuleKind::kComposite;
}

std::vector<ModuleId> SpecView::SubsumedAtomics(NodeIndex i) const {
  const Module& m = spec_->module(visible(i));
  if (m.kind != ModuleKind::kComposite) return {m.id};
  std::vector<ModuleId> out;
  CollectAtomics(*spec_, m.expansion, &out);
  return out;
}

std::string SpecView::ToDot(const std::string& graph_name) const {
  DotOptions opts;
  opts.name = graph_name;
  opts.node_label = [this](NodeIndex u) {
    const Module& m = spec_->module(visible(u));
    return m.code + (m.name.empty() ? "" : "\\n" + m.name);
  };
  opts.edge_label = [this](NodeIndex u, NodeIndex v) {
    std::string out;
    for (const std::string& l : EdgeLabels(u, v)) {
      if (!out.empty()) out += ", ";
      out += l;
    }
    return out;
  };
  opts.node_attrs = [this](NodeIndex u) -> std::string {
    return IsCollapsed(u) ? "shape=box3d" : "";
  };
  return paw::ToDot(graph_, opts);
}

Result<SpecView> ExpandPrefix(const Specification& spec,
                              const ExpansionHierarchy& hierarchy,
                              const Prefix& prefix) {
  if (!hierarchy.IsValidPrefix(prefix)) {
    return Status::InvalidArgument(
        "prefix is not root-containing and parent-closed");
  }
  Flattener flat(spec, prefix);
  flat.FlattenWorkflow(spec.root());

  SpecView view;
  view.spec_ = &spec;
  view.prefix_ = prefix;
  view.visible_ = flat.visible;
  view.graph_.Resize(static_cast<NodeIndex>(flat.visible.size()));
  for (size_t i = 0; i < flat.visible.size(); ++i) {
    view.index_of_[flat.visible[i]] = static_cast<NodeIndex>(i);
  }
  for (const auto& [pair, labels] : flat.edges) {
    NodeIndex u = view.index_of_.at(pair.first);
    NodeIndex v = view.index_of_.at(pair.second);
    Status st = view.graph_.AddEdge(u, v);
    if (!st.ok()) {
      return Status::Internal("view edge construction failed: " +
                              st.ToString());
    }
    view.edge_labels_[{u, v}] = labels;
  }
  return view;
}

std::vector<ModuleId> VisibleModules(const Specification& spec,
                                     const Prefix& prefix) {
  std::vector<ModuleId> out;
  CollectVisible(spec, prefix, spec.root(), &out);
  return out;
}

Result<SpecView> FullExpansion(const Specification& spec,
                               const ExpansionHierarchy& hierarchy) {
  return ExpandPrefix(spec, hierarchy, hierarchy.FullPrefix());
}

}  // namespace paw
