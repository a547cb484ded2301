"""The C++ runtime of every generated kernel, and the standalone driver.

The compiler emits one C++ text per (program, strategy, direction): the
native kernel of :func:`repro.backend.cpp_backend.generate_native_cpp`.
:func:`kernel_runtime` is prepended to it verbatim, playing the role of the
runtime library the paper's compiler links against ("We built runtime
libraries to manage the buffer and update buckets", Section 5.1).  It
provides:

- ``WGraph``: CSR graph over *borrowable* pointer views.
  ``WGraph::Borrow`` wraps caller-owned CSR arrays without copying (the
  runner passes numpy buffers, the driver its loader's vectors), and
  ``TransposeGraph`` fills the owning stores for the pull direction,
- the atomic vocabulary of Figure 9 (``atomicWriteMin``, clamped
  fetch-add, byte CAS for dedup flags, ``fetchAdd`` for slot counters),
- ``LazyPriorityQueue``: the lazy bucket structure with a materialized
  window, overflow bucket, dedup-flagged update buffer, and the
  priority-vector + Δ interface (Section 5.1's redesign of Julienne's
  lambda-based interface).  The queue works in *order space* (ascending
  bucket orders), parameterized by a direction sign and a null-priority
  sentinel, so one implementation serves both ``lower_first`` (SSSP,
  k-core) and ``higher_first`` (widest path) programs — mirroring
  ``repro.buckets.interface``,
- ``OutVec``: the view a global vector constant binds to the caller's
  output buffer.

The eager structure needs no runtime class: as in Figure 9(c) the compiler
emits its thread-local ``local_bins`` inline.  ``<map>`` is included only
for a map-binned eager region and ``<iostream>`` only for a ``print``, so a
kernel build does not parse headers it never uses.

:func:`driver` is the rest of the standalone program (``generate_cpp``):
an edge-list loader, a ``main`` that calls ``repro_native_run``, and the
output dump.  Only the output names, the vertex-argument slots and the
run-parameter values differ between programs.

Compiles with ``g++ -O2 -std=c++17 -fopenmp`` (OpenMP optional).  The
thread count is a run parameter (a kernel takes ``num_threads`` from its
run-parameter block; the driver passes 0, which keeps OpenMP's default and
so honours ``OMP_NUM_THREADS``), but the thread mode of the code is fixed
at compile time: every atomic helper and ``bufferVertex`` take it as a
template parameter, and the emitter instantiates each region's body twice,
as serial code (``<true>`` helpers, which are a plain load and store, and
no OpenMP construct) and as the OpenMP text (``<false>``, the relaxed
atomics).  ``detectSerial()`` sets ``gSerial`` once per run when
``omp_get_max_threads() == 1`` (always without OpenMP), and each region
branches on it once.
"""

__all__ = ["driver", "kernel_runtime"]

_BANNER = (
    "// ---- embedded repro runtime (generated; do not edit) "
    "-------------------\n"
)
_END = (
    "// ---- end embedded runtime "
    "------------------------------------------------\n"
)

#: The headers every kernel includes, in include order.
_HEADERS = ("algorithm", "cstdint", "cstdlib", "cstring", "limits", "memory", "vector")


def _piece(text: str) -> str:
    """A runtime piece written as a raw string that opens with a newline."""
    return text[1:]


_RUNTIME = _piece(
    r"""
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

struct WGraph {
  int64_t num_nodes = 0;
  int64_t num_edges_ = 0;
  // The adjacency is addressed through raw pointer views so one struct
  // serves both storage modes: TransposeGraph fills the owning *_store
  // vectors, while Borrow wraps caller-owned CSR arrays (numpy buffers
  // handed across the native ABI, the driver's loaded vectors) without
  // copying.
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

  std::vector<int64_t> OutDegrees() const {
    std::vector<int64_t> result(num_nodes);
    for (int64_t v = 0; v < num_nodes; v++) result[v] = out_degree(v);
    return result;
  }
};

// ---- atomics (Figure 9's vocabulary) ------------------------------------
// One thread is serial code, fixed at compile time: every helper takes the
// thread mode as a template parameter, and its kSerial instantiation is a
// plain load and store.  detectSerial() sets gSerial once per run; each
// emitted region branches on it once, to a serial instantiation of its
// body (no OpenMP construct) or to the OpenMP one.
static bool gSerial = true;

inline void detectSerial() {
#ifdef _OPENMP
  gSerial = omp_get_max_threads() == 1;
#else
  gSerial = true;
#endif
}

template <bool kSerial>
inline bool atomicWriteMin(int64_t *addr, int64_t value) {
  if constexpr (kSerial) {
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

template <bool kSerial>
inline bool atomicWriteMax(int64_t *addr, int64_t value) {
  if constexpr (kSerial) {
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
template <bool kSerial>
inline bool atomicWriteMin(int64_t *addr, int64_t value, int64_t seed) {
  if constexpr (kSerial) return atomicWriteMin<true>(addr, value);
  int64_t old = seed;
  while (value < old) {
    if (__atomic_compare_exchange_n(addr, &old, value, false,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED))
      return true;
  }
  return false;
}

template <bool kSerial>
inline bool atomicWriteMax(int64_t *addr, int64_t value, int64_t seed) {
  if constexpr (kSerial) return atomicWriteMax<true>(addr, value);
  int64_t old = seed;
  while (value > old) {
    if (__atomic_compare_exchange_n(addr, &old, value, false,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED))
      return true;
  }
  return false;
}

// Clamped add: priority += diff, not past `clamp`; returns the new value,
// or kIntMax when nothing changed (the vertex is already at or past the
// clamp, mirroring the is-finalized check in the update operators).  Also
// the plain form for sites the race analysis proved thread-owned.
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

template <bool kSerial>
inline int64_t atomicAddClamped(int64_t *addr, int64_t diff, int64_t clamp) {
  if constexpr (kSerial) return addClamped(addr, diff, clamp);
  int64_t old = __atomic_load_n(addr, __ATOMIC_RELAXED);
  while (true) {
    if (diff < 0 && old <= clamp) return kIntMax;
    if (diff > 0 && old >= clamp) return kIntMax;
    int64_t desired = old + diff;
    if (diff < 0) desired = std::max(desired, clamp);
    else desired = std::min(desired, clamp);
    if (desired == old) return kIntMax;
    if (__atomic_compare_exchange_n(addr, &old, desired, false,
                                    __ATOMIC_RELAXED, __ATOMIC_RELAXED))
      return desired;
  }
}

template <bool kSerial>
inline bool CASByte(uint8_t *addr, uint8_t expected, uint8_t desired) {
  if constexpr (kSerial) {
    if (*addr != expected) return false;
    *addr = desired;
    return true;
  }
  return __atomic_compare_exchange_n(addr, &expected, desired, false,
                                     __ATOMIC_RELAXED, __ATOMIC_RELAXED);
}

// Fetch-add for slot counters (histogram counts, buffer and frontier tails).
template <bool kSerial, typename T>
inline T fetchAdd(T *addr, T value) {
  if constexpr (kSerial) {
    T old = *addr;
    *addr = old + value;
    return old;
  }
  return __atomic_fetch_add(addr, value, __ATOMIC_RELAXED);
}

// The eager region's next-bucket election: size_t bins for lower_first,
// signed orders for higher_first (its map-binned orders are negative).
template <bool kSerial, typename T>
inline void atomicMin(T *addr, T value) {
  if constexpr (kSerial) {
    if (value < *addr) *addr = value;
    return;
  }
  T old = __atomic_load_n(addr, __ATOMIC_RELAXED);
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
// A power-of-two delta orders by arithmetic shift, which floors like
// floorDiv for either sign; any other delta divides.
struct LazyPriorityQueue {
  int64_t *priorities;
  int64_t num_verts;
  int64_t delta;
  int shift = -1;
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
    if (delta > 0 && (delta & (delta - 1)) == 0) shift = __builtin_ctzll(delta);
    buckets.assign(num_open, {});
    // One spare slot: the serial histogram appends with an unconditional
    // store and a predicated tail advance.
    pending.assign(n + 1, 0);
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
    return dir_sign * (shift >= 0 ? value >> shift : floorDiv(value, delta));
  }

  void rebase(int64_t new_base) {
    base = new_base;
    for (auto &b : buckets) b.clear();
  }

  void insert(NodeID v, int64_t order) {
    if (order < base || order >= base + num_open) overflow.push_back(v);
    else buckets[order - base].push_back(v);
  }

  // Buffered bucket update with a dedup-flag CAS (Figure 9(a)).
  template <bool kSerial>
  void bufferVertex(NodeID v) {
    if (CASByte<kSerial>(&pending_flags[v], 0, 1))
      pending[fetchAdd<kSerial>(&pending_tail, (size_t)1)] = v;
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

"""
)


_OUT_VEC = r"""
// ---- native ABI support --------------------------------------------------
#ifdef _OPENMP
#include <omp.h>
#endif

// A vector *view* over a caller-owned output buffer: global vector
// constants bind to these so every priority/result write lands directly in
// the caller's numpy array (zero-copy outputs).  Capacity is the graph's
// vertex count, guaranteed by the runner.
struct OutVec {
  int64_t *ptr = nullptr;
  size_t n = 0;

  void bind(int64_t *p, int64_t size) { ptr = p; n = (size_t)size; }
  size_t size() const { return n; }
  int64_t *data() { return ptr; }
  const int64_t *data() const { return ptr; }
  int64_t &operator[](size_t i) { return ptr[i]; }
  const int64_t &operator[](size_t i) const { return ptr[i]; }

  void assign(int64_t size, int64_t value) {
    n = (size_t)size;
    for (size_t i = 0; i < n; i++) ptr[i] = value;
  }

  OutVec &operator=(const std::vector<int64_t> &values) {
    n = values.size();
    for (size_t i = 0; i < n; i++) ptr[i] = values[i];
    return *this;
  }
};
// ---- end native ABI support ----------------------------------------------
"""


def kernel_runtime(uses_map: bool, uses_print: bool) -> str:
    """The runtime of a kernel translation unit: ``<map>`` only for a
    map-binned eager region, ``<iostream>`` only for a ``print``."""
    headers = sorted(
        _HEADERS + ("map",) * uses_map + ("iostream",) * uses_print
    )
    includes = "".join(f"#include <{header}>\n" for header in headers)
    includes += "#ifdef _OPENMP\n#include <omp.h>\n#endif\n\n"
    return "\n" + _BANNER + includes + _RUNTIME + _END + "\n" + _OUT_VEC


_DRIVER = _piece(
    r"""
// ---- standalone driver: load an edge list, run the kernel, dump vectors ---
#include <cerrno>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

// A whole token as one base-10 int64 (no overflow, nothing after it).
static bool parseInt(const std::string &token, int64_t &value) {
  char *end = nullptr;
  errno = 0;
  value = std::strtoll(token.c_str(), &end, 10);
  return end != token.c_str() && *end == '\0' && errno == 0;
}

// Loads "src dst [weight]" lines ('#'/'%' open comments) into CSR vectors
// and returns a borrowed view of them; any other line is an error.  The
// "# vertices=N" header written by save_edge_list keeps trailing isolated
// vertices.
static WGraph LoadEdgeList(const char *path, std::vector<int64_t> &indptr,
                           std::vector<NodeID> &indices,
                           std::vector<WeightT> &weights) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "error: cannot open graph file: " << path << std::endl;
    std::exit(1);
  }
  std::vector<NodeID> sources, dests;
  std::vector<WeightT> edge_weights;
  NodeID max_id = -1, declared_nodes = -1;
  std::string line;
  for (int64_t lineno = 1; std::getline(in, line); lineno++) {
    size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#' || line[first] == '%') {
      size_t pos = line.find("vertices=");
      if (pos != std::string::npos)
        declared_nodes = atoll(line.c_str() + pos + 9);
      continue;
    }
    std::istringstream row(line);
    std::string field[4];
    int fields = 0;
    while (fields < 4 && row >> field[fields]) fields++;
    NodeID s = -1, d = -1;
    WeightT w = 1;
    if (fields < 2 || fields > 3 || !parseInt(field[0], s) ||
        !parseInt(field[1], d) || s < 0 || d < 0 ||
        (fields == 3 && !parseInt(field[2], w))) {
      std::cerr << "error: " << path << ":" << lineno
                << ": expected 'src dst [weight]' with vertex ids >= 0, got '"
                << line << "'" << std::endl;
      std::exit(1);
    }
    sources.push_back(s);
    dests.push_back(d);
    edge_weights.push_back(w);
    max_id = std::max(max_id, std::max(s, d));
  }
  const int64_t n = std::max(max_id + 1, declared_nodes);
  const int64_t m = (int64_t)sources.size();
  indptr.assign(n + 1, 0);
  for (NodeID s : sources) indptr[s + 1]++;
  for (int64_t v = 0; v < n; v++) indptr[v + 1] += indptr[v];
  indices.resize(m);
  weights.resize(m);
  std::vector<int64_t> cursor(indptr.begin(), indptr.end() - 1);
  for (int64_t e = 0; e < m; e++) {
    int64_t slot = cursor[sources[e]]++;
    indices[slot] = dests[e];
    weights[slot] = edge_weights[e];
  }
  return WGraph::Borrow(indptr.data(), indices.data(), weights.data(), n, m);
}

static void dumpVector(std::ostream &out, const std::string &name,
                       const std::vector<int64_t> &values) {
  out << name;
  for (int64_t value : values) out << ' ' << value;
  out << '\n';
}

// Runs the kernel on the graph argv[1] with the integer arguments argv[2:]
// and writes each output vector to $REPRO_OUTPUT (default
// repro_output.txt), one "name v0 v1 ..." line each.  An argument the
// program uses as a vertex must lie in [0, n).
static int runDriver(int argc, char *argv[],
                     const std::vector<std::string> &outputs,
                     const std::vector<int> &vertex_args,
                     const std::vector<int64_t> &params) {
  if (argc < 2) {
    std::cerr << "usage: " << argv[0] << " <graph.el> [integer arguments]"
              << std::endl;
    return 1;
  }
  std::vector<int64_t> indptr;
  std::vector<NodeID> indices;
  std::vector<WeightT> weights;
  WGraph g = LoadEdgeList(argv[1], indptr, indices, weights);
  std::vector<int64_t> args;
  for (int i = 2; i < argc; i++) args.push_back(atoll(argv[i]));
  for (int k : vertex_args) {
    if (k < argc && (args[k - 2] < 0 || args[k - 2] >= g.num_nodes)) {
      std::cerr << "error: argv[" << k << "] = " << args[k - 2]
                << " out of range for a " << g.num_nodes << "-vertex graph"
                << std::endl;
      return 1;
    }
  }
  std::vector<std::vector<int64_t>> values(
      outputs.size(), std::vector<int64_t>(g.num_nodes));
  std::vector<int64_t *> out;
  for (std::vector<int64_t> &value : values) out.push_back(value.data());
  int64_t status = repro_native_run(
      g.indptr, g.indices, g.weights, g.num_nodes, g.num_edges(), args.data(),
      (int64_t)args.size(), out.data(), (int64_t)out.size(), params.data(),
      (int64_t)params.size());
  if (status == 3) {
    std::cerr << "error: program needs " << repro_native_num_args_required()
              << " integer argument(s) after the graph path, got "
              << args.size() << std::endl;
    return 1;
  }
  if (status != 0) {
    std::cerr << "error: kernel returned status " << status
              << (status == 2 ? " (output arity mismatch)"
                              : " (run-parameter block size mismatch)")
              << std::endl;
    return 1;
  }
  const char *path = std::getenv("REPRO_OUTPUT");
  std::ofstream file(path ? path : "repro_output.txt");
  for (size_t i = 0; i < outputs.size(); i++)
    dumpVector(file, outputs[i], values[i]);
  return 0;
}
"""
)


def driver(outputs, vertex_args, params) -> str:
    """The standalone program's tail after the kernel: the fixed driver,
    then a ``main`` naming the output vectors, the argv slots used as
    vertices and the run-parameter block."""
    names = ", ".join(f'"{name}"' for name in outputs)
    slots = ", ".join(str(slot) for slot in vertex_args)
    block = ", ".join(str(value) for value in params)
    return (
        "\n" + _DRIVER + "\nint main(int argc, char *argv[]) {\n"
        f"  return runDriver(argc, argv, {{{names}}}, {{{slots}}}, {{{block}}});\n"
        "}\n"
    )
