// Generated by repro.backend.cpp_backend — do not edit.
// schedule: Schedule(priority_update='lazy_constant_sum', delta=1, bucket_fusion_threshold=1000, num_buckets=64, direction='SparsePush', parallelization='dynamic-vertex-parallel', num_threads=8, chunk_size=64, execution='serial', sanitize=False, incremental=False)

// ---- embedded repro runtime (generated; do not edit) -------------------
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>
#ifdef _OPENMP
#include <omp.h>
#endif

using NodeID = int64_t;
using WeightT = int64_t;
static const int64_t kIntMax = std::numeric_limits<int64_t>::max();
// Null priority for higher_first queues (repro.buckets NULL_PRIORITY_HIGHER).
static const int64_t kNullHigher = -(int64_t(1) << 62);
static const size_t kMaxBin = std::numeric_limits<size_t>::max() / 2;

// Python-style floor division: bucket orders must round toward -inf so the
// higher_first order mapping (-floorDiv(p, delta)) matches the interpreter
// (C++ '/' truncates toward zero).
inline int64_t floorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) q--;
  return q;
}

struct WNode {
  NodeID v;
  WeightT weight;
};

struct WGraph {
  int64_t num_nodes = 0;
  int64_t num_edges_ = 0;
  // The adjacency is addressed through raw pointer views so one struct
  // serves both storage modes: Load/Transpose fill the owning *_store
  // vectors, while Borrow wraps caller-owned CSR arrays (numpy buffers
  // handed across the native ABI) without copying.
  const int64_t *indptr = nullptr;
  const NodeID *indices = nullptr;
  const WeightT *weights = nullptr;
  std::vector<int64_t> indptr_store;
  std::vector<NodeID> indices_store;
  std::vector<WeightT> weights_store;

  WGraph() = default;
  // Copying would leave the pointer views aimed at the source's storage;
  // moves are safe (std::vector moves preserve the heap buffers).
  WGraph(const WGraph &) = delete;
  WGraph &operator=(const WGraph &) = delete;
  WGraph(WGraph &&) = default;
  WGraph &operator=(WGraph &&) = default;

  void adopt() {
    indptr = indptr_store.data();
    indices = indices_store.data();
    weights = weights_store.data();
  }

  static WGraph Borrow(const int64_t *indptr_, const NodeID *indices_,
                       const WeightT *weights_, int64_t num_nodes_,
                       int64_t num_edges_in) {
    WGraph g;
    g.num_nodes = num_nodes_;
    g.num_edges_ = num_edges_in;
    g.indptr = indptr_;
    g.indices = indices_;
    g.weights = weights_;
    return g;
  }

  int64_t num_edges() const { return num_edges_; }
  int64_t out_degree(NodeID v) const { return indptr[v + 1] - indptr[v]; }

  struct Neighborhood {
    const WGraph *g;
    int64_t begin_, end_;
    struct Iter {
      const WGraph *g;
      int64_t i;
      WNode operator*() const { return WNode{g->indices[i], g->weights[i]}; }
      Iter &operator++() { ++i; return *this; }
      bool operator!=(const Iter &o) const { return i != o.i; }
    };
    Iter begin() const { return Iter{g, begin_}; }
    Iter end() const { return Iter{g, end_}; }
  };

  Neighborhood out_neigh(NodeID v) const {
    return Neighborhood{this, indptr[v], indptr[v + 1]};
  }

  // Loads "src dst [weight]" lines; '#'/'%' open comments.
  static WGraph Load(const std::string &path) {
    std::ifstream in(path);
    if (!in) {
      std::cerr << "cannot open graph file: " << path << std::endl;
      std::exit(1);
    }
    std::vector<NodeID> sources, dests;
    std::vector<WeightT> edge_weights;
    NodeID max_id = -1;
    std::string line;
    NodeID declared_nodes = -1;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#' || line[0] == '%') {
        // Honour the "# vertices=N ..." header written by save_edge_list so
        // trailing isolated vertices are preserved.
        size_t pos = line.find("vertices=");
        if (pos != std::string::npos)
          declared_nodes = atoll(line.c_str() + pos + 9);
        continue;
      }
      std::istringstream row(line);
      NodeID s, d;
      WeightT w = 1;
      if (!(row >> s >> d)) continue;
      row >> w;
      sources.push_back(s);
      dests.push_back(d);
      edge_weights.push_back(w);
      max_id = std::max(max_id, std::max(s, d));
    }
    WGraph g;
    g.num_nodes = std::max(max_id + 1, declared_nodes);
    g.num_edges_ = (int64_t)sources.size();
    std::vector<int64_t> degree(g.num_nodes, 0);
    for (NodeID s : sources) degree[s]++;
    g.indptr_store.assign(g.num_nodes + 1, 0);
    for (int64_t v = 0; v < g.num_nodes; v++)
      g.indptr_store[v + 1] = g.indptr_store[v] + degree[v];
    g.indices_store.resize(g.num_edges_);
    g.weights_store.resize(g.num_edges_);
    std::vector<int64_t> cursor(g.indptr_store.begin(),
                                g.indptr_store.end() - 1);
    for (size_t e = 0; e < sources.size(); e++) {
      int64_t slot = cursor[sources[e]]++;
      g.indices_store[slot] = dests[e];
      g.weights_store[slot] = edge_weights[e];
    }
    g.adopt();
    return g;
  }

  std::vector<int64_t> OutDegrees() const {
    std::vector<int64_t> result(num_nodes);
    for (int64_t v = 0; v < num_nodes; v++) result[v] = out_degree(v);
    return result;
  }
};

// ---- atomics (Figure 9's vocabulary) ------------------------------------
// One thread is serial code: set once per run by detectSerial(), it turns
// every helper below into a plain load and store and every emitted
// parallel region off (`#pragma omp parallel ... if(!gSerial)`).
static bool gSerial = true;

inline void detectSerial() {
#ifdef _OPENMP
  gSerial = omp_get_max_threads() == 1;
#else
  gSerial = true;
#endif
}

inline bool atomicWriteMin(int64_t *addr, int64_t value) {
  if (gSerial) {
    if (value >= *addr) return false;
    *addr = value;
    return true;
  }
  int64_t old = __atomic_load_n(addr, __ATOMIC_RELAXED);
  while (value < old) {
    if (__atomic_compare_exchange_n(addr, &old, value, false,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED))
      return true;
  }
  return false;
}

inline bool atomicWriteMax(int64_t *addr, int64_t value) {
  if (gSerial) {
    if (value <= *addr) return false;
    *addr = value;
    return true;
  }
  int64_t old = __atomic_load_n(addr, __ATOMIC_RELAXED);
  while (value > old) {
    if (__atomic_compare_exchange_n(addr, &old, value, false,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED))
      return true;
  }
  return false;
}

// Seeded overloads: the race analysis preserves the UDF's own read of the
// old priority (the 3-argument updatePriorityMin form), so the first CAS
// attempt starts from that value instead of issuing an extra atomic load.
inline bool atomicWriteMin(int64_t *addr, int64_t value, int64_t seed) {
  if (gSerial) return atomicWriteMin(addr, value);
  int64_t old = seed;
  while (value < old) {
    if (__atomic_compare_exchange_n(addr, &old, value, false,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED))
      return true;
  }
  return false;
}

inline bool atomicWriteMax(int64_t *addr, int64_t value, int64_t seed) {
  if (gSerial) return atomicWriteMax(addr, value);
  int64_t old = seed;
  while (value > old) {
    if (__atomic_compare_exchange_n(addr, &old, value, false,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED))
      return true;
  }
  return false;
}

// Clamped fetch-add: priority += diff, not past `clamp`; returns the new
// value, or kIntMax when nothing changed.
inline int64_t atomicAddClamped(int64_t *addr, int64_t diff, int64_t clamp) {
  int64_t old = __atomic_load_n(addr, __ATOMIC_RELAXED);
  while (true) {
    // Already at or past the clamp: the vertex is finalized, do nothing
    // (mirrors the is-finalized check in the update operators).
    if (diff < 0 && old <= clamp) return kIntMax;
    if (diff > 0 && old >= clamp) return kIntMax;
    int64_t desired = old + diff;
    if (diff < 0) desired = std::max(desired, clamp);
    else desired = std::min(desired, clamp);
    if (desired == old) return kIntMax;
    if (gSerial) {
      *addr = desired;
      return desired;
    }
    if (__atomic_compare_exchange_n(addr, &old, desired, false,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED))
      return desired;
  }
}

// Serial clamped add for sites the race analysis proved thread-owned: same
// semantics as atomicAddClamped without the compare-exchange loop.
inline int64_t addClamped(int64_t *addr, int64_t diff, int64_t clamp) {
  int64_t old = *addr;
  if (diff < 0 && old <= clamp) return kIntMax;
  if (diff > 0 && old >= clamp) return kIntMax;
  int64_t desired = old + diff;
  if (diff < 0) desired = std::max(desired, clamp);
  else desired = std::min(desired, clamp);
  if (desired == old) return kIntMax;
  *addr = desired;
  return desired;
}

inline bool CASByte(uint8_t *addr, uint8_t expected, uint8_t desired) {
  if (gSerial) {
    if (*addr != expected) return false;
    *addr = desired;
    return true;
  }
  return __atomic_compare_exchange_n(addr, &expected, desired, false,
                                     __ATOMIC_RELAXED, __ATOMIC_RELAXED);
}

// Fetch-add for slot counters (histogram counts, buffer tails).
template <typename T>
inline T fetchAdd(T *addr, T value) {
  if (gSerial) {
    T old = *addr;
    *addr = old + value;
    return old;
  }
  return __atomic_fetch_add(addr, value, __ATOMIC_RELAXED);
}

inline void atomicMinSize(size_t *addr, size_t value) {
  if (gSerial) {
    if (value < *addr) *addr = value;
    return;
  }
  size_t old = __atomic_load_n(addr, __ATOMIC_RELAXED);
  while (value < old) {
    if (__atomic_compare_exchange_n(addr, &old, value, false,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED))
      return;
  }
}

// Signed variant for the order-space (map-binned) eager region, where bucket
// orders of higher_first queues are negative and cannot index a dense array.
inline void atomicMinInt64(int64_t *addr, int64_t value) {
  if (gSerial) {
    if (value < *addr) *addr = value;
    return;
  }
  int64_t old = __atomic_load_n(addr, __ATOMIC_RELAXED);
  while (value < old) {
    if (__atomic_compare_exchange_n(addr, &old, value, false,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED))
      return;
  }
}

// ---- lazy bucket structure (Section 3.1 / Figure 9(a)) ------------------
// Works in *order space*: ascending orders regardless of queue direction.
// lower_first maps value -> floorDiv(value, delta); higher_first negates so
// the highest priority gets the smallest order (repro.buckets.interface).
struct LazyPriorityQueue {
  int64_t *priorities;
  int64_t num_verts;
  int64_t delta;
  int64_t cur_order = -1;
  int64_t base = 0;
  int num_open;
  int64_t dir_sign;       // +1 lower_first, -1 higher_first
  int64_t null_priority;  // kIntMax lower_first, kNullHigher higher_first
  bool cur_valid = false;
  std::vector<std::vector<NodeID>> buckets;
  std::vector<NodeID> overflow;
  std::vector<NodeID> pending;
  size_t pending_tail = 0;
  std::vector<uint8_t> pending_flags;
  std::vector<int64_t> processed_value;
  bool primed = false;

  LazyPriorityQueue(int64_t *pv, int64_t n, int64_t delta_, NodeID start,
                    int num_open_ = 128, int64_t dir_sign_ = 1,
                    int64_t null_priority_ = kIntMax)
      : priorities(pv), num_verts(n), delta(delta_), num_open(num_open_),
        dir_sign(dir_sign_), null_priority(null_priority_) {
    buckets.assign(num_open, {});
    pending.assign(n, 0);
    pending_flags.assign(n, 0);
    processed_value.assign(n, std::numeric_limits<int64_t>::min());
    if (start >= 0) {
      rebase(orderOf(priorities[start]));
      insert(start, orderOf(priorities[start]));
    } else {
      // Insert every vertex with a non-null priority (k-core pattern).
      int64_t min_order = kIntMax;
      for (NodeID v = 0; v < n; v++)
        if (priorities[v] != null_priority)
          min_order = std::min(min_order, orderOf(priorities[v]));
      if (min_order != kIntMax) {
        rebase(min_order);
        for (NodeID v = 0; v < n; v++)
          if (priorities[v] != null_priority) insert(v, orderOf(priorities[v]));
      }
    }
  }

  int64_t orderOf(int64_t value) const {
    return dir_sign * floorDiv(value, delta);
  }

  void rebase(int64_t new_base) {
    base = new_base;
    for (auto &b : buckets) b.clear();
  }

  void insert(NodeID v, int64_t order) {
    if (order < base || order >= base + num_open) overflow.push_back(v);
    else buckets[order - base].push_back(v);
  }

  // Thread-safe buffered bucket update with a dedup-flag CAS (Figure 9(a)).
  void bufferVertex(NodeID v) {
    if (CASByte(&pending_flags[v], 0, 1)) {
      size_t slot = fetchAdd(&pending_tail, (size_t)1);
      pending[slot] = v;
    }
  }

  void flushPending() {
    for (size_t i = 0; i < pending_tail; i++) {
      NodeID v = pending[i];
      pending_flags[v] = 0;
      int64_t p = priorities[v];
      if (p == null_priority) continue;
      int64_t order = orderOf(p);
      if (cur_valid) order = std::max(order, cur_order);
      insert(v, order);
    }
    pending_tail = 0;
  }

  bool finished() {
    if (pending_tail > 0 || !overflow.empty()) return false;
    for (auto &b : buckets)
      if (!b.empty()) return false;
    return true;
  }

  int64_t getCurrentPriority() const { return dir_sign * cur_order * delta; }

  // Reduce the buffer, bulk-update, pop the next live bucket.  Returns the
  // empty set when drained; kIntMax below is the no-bucket sentinel in
  // order space (real orders are far smaller in magnitude).
  std::vector<NodeID> dequeueReadySet() {
    flushPending();
    while (true) {
      int64_t order = nextNonEmpty();
      if (order == kIntMax) {
        if (overflow.empty()) return {};
        rebucketOverflow();
        continue;
      }
      cur_order = order;
      cur_valid = true;
      // No sort: a second copy of v at the same priority fails the
      // processed_value check, and every lazy program's output is a fixpoint
      // once the bucket drains, so it does not depend on member order.
      std::vector<NodeID> members;
      members.swap(buckets[order - base]);
      std::vector<NodeID> live;
      for (NodeID v : members) {
        int64_t p = priorities[v];
        if (p == null_priority) continue;
        if (orderOf(p) <= order && p != processed_value[v]) {
          processed_value[v] = p;
          live.push_back(v);
        }
      }
      if (!live.empty()) return live;
    }
  }

  int64_t nextNonEmpty() const {
    int64_t start = cur_valid ? std::max(base, cur_order) : base;
    for (int64_t order = start; order < base + num_open; order++)
      if (!buckets[order - base].empty()) return order;
    return kIntMax;
  }

  void rebucketOverflow() {
    std::vector<NodeID> stale;
    stale.swap(overflow);
    int64_t min_order = kIntMax;
    for (NodeID v : stale) {
      int64_t p = priorities[v];
      if (p == null_priority) continue;
      int64_t order = orderOf(p);
      if (cur_valid && order < cur_order) continue;
      min_order = std::min(min_order, order);
    }
    if (min_order == kIntMax) return;
    rebase(min_order);
    for (NodeID v : stale) {
      int64_t p = priorities[v];
      if (p == null_priority) continue;
      int64_t order = orderOf(p);
      if (cur_valid && order < cur_order) continue;
      insert(v, order);
    }
  }
};

inline WGraph TransposeGraph(const WGraph &g) {
  WGraph t;
  t.num_nodes = g.num_nodes;
  t.num_edges_ = g.num_edges_;
  std::vector<int64_t> degree(g.num_nodes, 0);
  for (int64_t e = 0; e < g.num_edges_; e++) degree[g.indices[e]]++;
  t.indptr_store.assign(g.num_nodes + 1, 0);
  for (int64_t v = 0; v < g.num_nodes; v++)
    t.indptr_store[v + 1] = t.indptr_store[v] + degree[v];
  t.indices_store.resize(g.num_edges_);
  t.weights_store.resize(g.num_edges_);
  std::vector<int64_t> cursor(t.indptr_store.begin(),
                              t.indptr_store.end() - 1);
  for (NodeID s = 0; s < g.num_nodes; s++) {
    for (int64_t e = g.indptr[s]; e < g.indptr[s + 1]; e++) {
      int64_t slot = cursor[g.indices[e]]++;
      t.indices_store[slot] = s;
      t.weights_store[slot] = g.weights[e];
    }
  }
  t.adopt();
  return t;
}

// Template so the same dump works for std::vector and the native OutVec view.
template <typename Vec>
static void dumpVector(std::ostream &out, const char *name,
                       const Vec &values) {
  out << name;
  for (size_t i = 0; i < values.size(); i++) out << ' ' << values[i];
  out << '\n';
}
// ---- end embedded runtime ------------------------------------------------

WGraph edges;
std::vector<int64_t> D;
LazyPriorityQueue *pq = nullptr;
int64_t delta = 1;

inline int64_t apply_f_transformed(NodeID vertex, int64_t count) {
  int64_t k = pq->getCurrentPriority();
  int64_t priority = D[vertex];
  if ((priority > k)) {
    int64_t new_pri = std::max<int64_t>((priority + (-1 * count)), k);
    D[vertex] = new_pri;
    return new_pri;
  }
  return kIntMax;
}

int main(int argc, char *argv[]) {
  (void)argc;
  detectSerial();
  edges = WGraph::Load(argv[1]);
  D = edges.OutDegrees();
  pq = new LazyPriorityQueue(D.data(), edges.num_nodes, delta, -1, 64, 1, kIntMax);
  std::vector<int64_t> __count(edges.num_nodes, 0);
  std::vector<NodeID> __touched(edges.num_nodes);
  size_t __touched_tail = 0;
  while ((pq->finished() == false)) {
    std::vector<NodeID> bucket = pq->dequeueReadySet();
    {
      const int64_t __k = pq->getCurrentPriority();
      #pragma omp parallel for schedule(dynamic, 64) if(!gSerial)
      for (size_t __i = 0; __i < bucket.size(); __i++) {
        for (WNode __wn : edges.out_neigh(bucket[__i])) {
          if (D[__wn.v] <= __k) continue;
          if (fetchAdd(&__count[__wn.v], (int64_t)1) == 0) {
            size_t __slot = fetchAdd(&__touched_tail, (size_t)1);
            __touched[__slot] = __wn.v;
          }
        }
      }
      #pragma omp parallel for schedule(dynamic, 64) if(!gSerial)
      for (size_t __i = 0; __i < __touched_tail; __i++) {
        NodeID __v = __touched[__i];
        if (apply_f_transformed(__v, __count[__v]) != kIntMax) pq->bufferVertex(__v);
        __count[__v] = 0;
      }
      __touched_tail = 0;
    }
    // delete bucket (scope-managed)
  }
  {
    const char *__path = std::getenv("REPRO_OUTPUT");
    std::ofstream __out(__path ? __path : "repro_output.txt");
    dumpVector(__out, "D", D);
  }
  return 0;
}
