#include "milp/search/node_store.hpp"

#include <algorithm>

namespace dpv::milp::search {

namespace {

/// Consecutive LIFO pops (the plunge) before the store spills its dive
/// stack into the heap and resumes from the best open bound.
constexpr std::size_t kPlungeLimit = 8;

/// Direction-aware "a is a more promising bound than b". Unbounded
/// nodes (the root before its first solve) rank as most promising.
bool bound_better(bool minimize, const SearchNode& a, const SearchNode& b) {
  if (a.has_bound != b.has_bound) return !a.has_bound;
  if (a.has_bound && a.bound != b.bound)
    return minimize ? a.bound < b.bound : a.bound > b.bound;
  return a.id < b.id;  // stable id, never pointer order
}

/// std::push_heap keeps the *largest* element on top, so the heap
/// predicate is "worse than" — the negation of bound_better.
struct Worse {
  bool minimize;
  bool operator()(const SearchNode& a, const SearchNode& b) const {
    return bound_better(minimize, b, a);
  }
};

}  // namespace

void NodeStore::heap_push(SearchNode node) {
  heap_.push_back(std::move(node));
  std::push_heap(heap_.begin(), heap_.end(), Worse{minimize_});
}

SearchNode NodeStore::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Worse{minimize_});
  SearchNode node = std::move(heap_.back());
  heap_.pop_back();
  return node;
}

bool NodeStore::pop(SearchNode& out) {
  if (!dive_.empty() && plunge_pops_ < kPlungeLimit) {
    ++plunge_pops_;
    out = std::move(dive_.back());
    dive_.pop_back();
    return true;
  }
  // Plunge over (or the dive ran dry): spill the dive stack, newest
  // first, and restart from the best open bound.
  while (!dive_.empty()) {
    heap_push(std::move(dive_.back()));
    dive_.pop_back();
  }
  plunge_pops_ = 0;
  if (heap_.empty()) return false;
  out = heap_pop();
  return true;
}

bool NodeStore::best_bound(double& out) const {
  bool found = false;
  for (const std::vector<SearchNode>* nodes : {&dive_, &heap_}) {
    for (const SearchNode& node : *nodes) {
      if (!node.has_bound) continue;
      if (!found || (minimize_ ? node.bound < out : node.bound > out)) out = node.bound;
      found = true;
    }
  }
  return found;
}

}  // namespace dpv::milp::search
