#include "src/workflow/hierarchy.h"

#include <algorithm>

#include "src/common/logging.h"

namespace paw {

ExpansionHierarchy ExpansionHierarchy::Build(const Specification& spec) {
  ExpansionHierarchy h;
  h.root_ = spec.root();
  size_t n = static_cast<size_t>(spec.num_workflows());
  h.parent_.assign(n, WorkflowId::Invalid());
  h.children_.assign(n, {});
  h.depth_.assign(n, 0);
  // Children discovered in module-insertion order gives a deterministic
  // left-to-right reading of the tree (W2 before W3 in the paper example).
  for (const Workflow& w : spec.workflows()) {
    for (ModuleId mid : w.modules) {
      const Module& m = spec.module(mid);
      if (m.kind == ModuleKind::kComposite) {
        h.parent_[static_cast<size_t>(m.expansion.value())] = w.id;
        h.children_[static_cast<size_t>(w.id.value())].push_back(m.expansion);
      }
    }
  }
  // Depths via repeated parent walks (hierarchies are small).
  for (const Workflow& w : spec.workflows()) {
    int d = 0;
    WorkflowId cur = w.id;
    while (cur != h.root_ && cur.valid()) {
      cur = h.parent_[static_cast<size_t>(cur.value())];
      ++d;
    }
    h.depth_[static_cast<size_t>(w.id.value())] = d;
  }
  return h;
}

WorkflowId ExpansionHierarchy::Parent(WorkflowId w) const {
  return parent_[static_cast<size_t>(w.value())];
}

const std::vector<WorkflowId>& ExpansionHierarchy::Children(
    WorkflowId w) const {
  return children_[static_cast<size_t>(w.value())];
}

int ExpansionHierarchy::Depth(WorkflowId w) const {
  return depth_[static_cast<size_t>(w.value())];
}

int ExpansionHierarchy::Height() const {
  int h = 0;
  for (int d : depth_) h = std::max(h, d);
  return h;
}

bool ExpansionHierarchy::IsValidPrefix(const Prefix& prefix) const {
  if (!prefix.count(root_)) return false;
  for (WorkflowId w : prefix) {
    if (w.value() < 0 || w.value() >= size()) return false;
    if (w != root_ && !prefix.count(Parent(w))) return false;
  }
  return true;
}

Prefix ExpansionHierarchy::Close(const Prefix& prefix) const {
  Prefix closed;
  closed.insert(root_);
  for (WorkflowId w : prefix) {
    WorkflowId cur = w;
    while (cur.valid() && !closed.count(cur)) {
      closed.insert(cur);
      cur = (cur == root_) ? WorkflowId::Invalid() : Parent(cur);
    }
  }
  return closed;
}

Prefix ExpansionHierarchy::FullPrefix() const {
  Prefix all;
  for (int i = 0; i < size(); ++i) all.insert(WorkflowId(i));
  return all;
}

Result<std::vector<Prefix>> ExpansionHierarchy::EnumeratePrefixes(
    int max_workflows) const {
  if (size() > max_workflows) {
    return Status::FailedPrecondition(
        "hierarchy too large for exhaustive prefix enumeration");
  }
  std::vector<Prefix> out;
  // BFS over the prefix lattice: extend each prefix by one child workflow
  // not yet included. Deduplicate via set comparison.
  std::set<Prefix> seen;
  std::vector<Prefix> frontier{RootPrefix()};
  seen.insert(RootPrefix());
  while (!frontier.empty()) {
    std::vector<Prefix> next;
    for (const Prefix& p : frontier) {
      out.push_back(p);
      for (WorkflowId w : p) {
        for (WorkflowId c : Children(w)) {
          if (!p.count(c)) {
            Prefix q = p;
            q.insert(c);
            if (seen.insert(q).second) next.push_back(q);
          }
        }
      }
    }
    frontier = std::move(next);
  }
  std::sort(out.begin(), out.end(),
            [](const Prefix& a, const Prefix& b) {
              if (a.size() != b.size()) return a.size() < b.size();
              return a < b;
            });
  return out;
}

uint64_t ExpansionHierarchy::CountPrefixes(uint64_t cap) const {
  // Top-down order, so that reversed it visits children before parents.
  std::vector<WorkflowId> order{root_};
  for (size_t i = 0; i < order.size(); ++i) {
    for (WorkflowId c : Children(order[i])) order.push_back(c);
  }
  std::vector<uint64_t> count(parent_.size(), 1);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    uint64_t n = 1;
    for (WorkflowId c : Children(*it)) {
      uint64_t sub = count[static_cast<size_t>(c.value())];
      // n * (1 + sub) with both factors bounded, saturating at `cap`.
      if (sub >= cap || n > cap / (sub + 1)) {
        n = cap;
        break;
      }
      n *= sub + 1;
    }
    count[static_cast<size_t>(it->value())] = std::min(n, cap);
  }
  return count[static_cast<size_t>(root_.value())];
}

Prefix ExpansionHierarchy::AccessPrefix(const Specification& spec,
                                        AccessLevel level) const {
  // Walk the tree top-down; stop descending at workflows above `level`.
  Prefix p;
  std::vector<WorkflowId> stack{root_};
  while (!stack.empty()) {
    WorkflowId w = stack.back();
    stack.pop_back();
    if (spec.workflow(w).required_level > level && w != root_) continue;
    p.insert(w);
    for (WorkflowId c : Children(w)) stack.push_back(c);
  }
  return p;
}

}  // namespace paw
