// The layer ladder of the traced run. It replays a workload's seeded op
// stream in this process through a ladder of public calls, each rung adding
// one layer:
//
//   R1 core     Tree calls on a Tree of integer values, no record cache
//   R2 cache    the same Tree with a RecordCache attached
//   R3 kvstore  an unlogged Store (rows, columns, epoch guards, versions)
//   R4 log      a logged Store with the default flush policy
//   R5 net      a loopback Client/Server pair over R3's store: one
//               connection, one server worker, one frame in flight
//
// R1-R4 time single-key and batched calls of each kind (get, multiget, put,
// multiput, scan) with the batch sizes the served run's server formed, plus
// the stream in order ("mix"); R5 times the mix in frames. A layer's cost is
// the difference between adjacent rungs; the network layer's is R5 - R3,
// because the server's request parsing and response encoding and the
// client's decoding are private to src/net and cannot be timed apart from
// the socket and the event loop. Call kinds the workload
// lacks are timed on its own keys: a put rewrites the key's value, a scan
// reads 1-100 pairs from it.

#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common.h"
#include "core/tree.h"
#include "kvstore/store.h"
#include "net/client.h"
#include "net/proto.h"
#include "net/server.h"
#include "served.h"
#include "trace.h"

namespace perfbench {

using Metrics = std::vector<std::pair<std::string, double>>;

namespace ladder_detail {

using masstree::ColumnUpdate;
using masstree::Counter;
using masstree::EpochGuard;
using masstree::EpochManager;
using masstree::RecordCache;
using masstree::ThreadContext;
using masstree::ThreadCounters;
using masstree::Tree;

// One op with its key and value resolved before any timing starts.
struct Op {
  OpKind kind;
  uint32_t idx;
  uint32_t len;        // scan limit
  std::string key;     // the key bytes (fresh keys included)
  std::string value;   // put / insert value
};

struct Streams {
  std::vector<Op> gets, puts, scans, mix;
};

// Insert ids carry a 6-bit slot so that every pass that inserts into one
// structure inserts keys no other pass used.
inline uint32_t with_slot(uint32_t id, unsigned slot) { return (id & ~63u) | slot; }

inline Streams make_streams(Workload w, uint64_t seed, const std::vector<std::string>& keys,
                            size_t n_gets, size_t n_puts, size_t n_scans, size_t n_mix) {
  const uint64_t smix = seed_mix(seed);
  OpGen gen(w, seed ^ 0x1ADDE5ull, 0, 1, keys.size());
  std::vector<uint32_t> seq(w == Workload::kYcsbALogged ? keys.size() : 0, 0);
  auto resolve = [&](StreamOp s) {
    Op op{s.kind, s.idx, s.len, {}, {}};
    switch (s.kind) {
      case OpKind::kGet:
      case OpKind::kScan:
        op.key = keys[s.idx];
        break;
      case OpKind::kPut:
        op.key = keys[s.idx];
        op.value = make_versioned(smix, s.idx, ++seq[s.idx]);
        break;
      case OpKind::kInsert:
        op.key = fresh_key(smix, s.idx);  // re-keyed per pass (with_slot)
        op.value = plain_value(smix, op.key);
        break;
    }
    return op;
  };
  Streams st;
  while (st.mix.size() < n_mix) {
    st.mix.push_back(resolve(gen.next()));
  }
  // The per-kind passes continue the same stream until each kind has its
  // count; kinds the workload never issues are made from its gets or scans.
  size_t guard = 0;
  while ((st.gets.size() < n_gets || st.puts.size() < n_puts || st.scans.size() < n_scans) &&
         guard++ < 50 * (n_gets + n_puts + n_scans)) {
    StreamOp s = gen.next();
    switch (s.kind) {
      case OpKind::kGet:
        if (st.gets.size() < n_gets) {
          st.gets.push_back(resolve(s));
        }
        if (w == Workload::kGetUniform && st.puts.size() < n_puts) {
          Op p = resolve(s);
          p.kind = OpKind::kPut;
          p.value = plain_value(smix, p.key);
          st.puts.push_back(std::move(p));
        }
        if (w != Workload::kScanInsert && st.scans.size() < n_scans) {
          Op sc = resolve(s);
          sc.kind = OpKind::kScan;
          sc.len = gen.scan_len();
          st.scans.push_back(std::move(sc));
        }
        break;
      case OpKind::kPut:
      case OpKind::kInsert:
        if (st.puts.size() < n_puts) {
          st.puts.push_back(resolve(s));
        }
        break;
      case OpKind::kScan:
        if (st.scans.size() < n_scans) {
          st.scans.push_back(resolve(s));
        }
        if (w == Workload::kScanInsert && st.gets.size() < n_gets) {
          Op g = resolve(s);
          g.kind = OpKind::kGet;
          st.gets.push_back(std::move(g));
        }
        break;
    }
  }
  return st;
}

// Re-keys a stream's inserts for one pass (see with_slot).
inline void reslot(std::vector<Op>* ops, uint64_t smix, unsigned slot) {
  for (Op& op : *ops) {
    if (op.kind == OpKind::kInsert) {
      op.idx = with_slot(op.idx, slot);
      op.key = fresh_key(smix, op.idx);
      op.value = plain_value(smix, op.key);
    }
  }
}

// Timing of one rung: ns per call for each pass.
struct Rung {
  double get_ns = 0, multiget_ns = 0, put_ns = 0, multiput_ns = 0, scan_ns_per_pair = 0;
  double mix_ns = 0;
  uint64_t gets = 0, puts = 0, ops = 0;  // calls issued in the timed round
  uint64_t attempted = 0;                // calls issued in both rounds
  uint64_t all_puts = 0;                 // puts issued in both rounds
  ThreadCounters delta;
  uint64_t limbo_growth = 0, rows_retired = 0;
};

inline ThreadCounters counter_delta(const ThreadCounters& a, const ThreadCounters& b) {
  ThreadCounters d;
  for (unsigned i = 0; i < masstree::kNumCounters; ++i) {
    d.c[i] = b.c[i] - a.c[i];
  }
  return d;
}

// Runs one timed pass and records its span (when tracing the round).
template <typename F>
double timed_pass(TraceLog* trace, uint64_t rung_span, const char* name, uint64_t units, F&& f) {
  uint64_t t0 = now_ns();
  f();
  uint64_t t1 = now_ns();
  if (trace != nullptr) {
    trace->record(name, rung_span, t0, t1, units);
  }
  return units == 0 ? 0.0 : static_cast<double>(t1 - t0) / static_cast<double>(units);
}

// The calls a rung makes. Tree rungs (R1, R2) and Store rungs (R3, R4) both
// provide them; `fail` counts answers that contradict the loaded state.
struct TreeCalls {
  TreeCalls(Tree& t, ThreadContext& c, uint64_t* f) : tree(t), ti(c), fail(f) {}

  Tree& tree;
  ThreadContext& ti;
  uint64_t* fail;
  std::vector<Tree::GetRequest> greq;
  std::vector<Tree::PutRequest> preq;

  ThreadCounters& counters() { return ti.counters(); }
  void get(const Op& op) {
    uint64_t v;
    *fail += !tree.get(op.key, &v, ti);
  }
  void multiget(std::span<const Op> ops) {
    greq.resize(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      greq[i] = Tree::GetRequest{ops[i].key};
    }
    *fail += ops.size() - tree.multiget(std::span<Tree::GetRequest>(greq), ti);
  }
  void put(const Op& op) {
    uint64_t old;
    tree.insert(op.key, op.idx, &old, ti);
  }
  void multiput(std::span<const Op> ops) {
    preq.resize(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      preq[i] = Tree::PutRequest{ops[i].key};
      preq[i].value = ops[i].idx;
    }
    tree.multiput(std::span<Tree::PutRequest>(preq), ti);
  }
  size_t scan(const Op& op) {
    EpochGuard g(ti.slot());
    // scan_batch prefetches the next border like Store::getrange does, so
    // the kvstore rung's difference is the row and column work alone.
    size_t n = tree.scan_batch(op.key, op.len, [](std::string_view, uint64_t) { return true; }, ti);
    *fail += n == 0;
    return n;
  }
};

struct StoreCalls {
  StoreCalls(Store& st, Store::Session& ss, uint64_t* f) : store(st), s(ss), fail(f) {}

  Store& store;
  Store::Session& s;
  uint64_t* fail;
  uint64_t rows_retired = 0;
  std::vector<std::string> cols;
  std::vector<std::string_view> keys;
  std::vector<Store::MultigetResult> mres;
  std::vector<ColumnUpdate> upd;
  std::vector<Store::PutOp> pops;

  ThreadCounters& counters() { return s.ti().counters(); }
  void get(const Op& op) { *fail += !store.get(op.key, {}, &cols, s); }
  void multiget(std::span<const Op> ops) {
    keys.resize(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      keys[i] = ops[i].key;
    }
    *fail += ops.size() - store.multiget(std::span<const std::string_view>(keys), {}, &mres, s);
  }
  void put(const Op& op) {
    std::vector<ColumnUpdate> one{{0, op.value}};
    Store::PutResult r = store.put_checked(op.key, one, s);
    *fail += r == Store::PutResult::kReadOnly;
    rows_retired += r == Store::PutResult::kUpdated;
  }
  void multiput(std::span<const Op> ops) {
    upd.resize(ops.size());
    pops.resize(ops.size());
    for (size_t i = 0; i < ops.size(); ++i) {
      upd[i] = ColumnUpdate{0, ops[i].value};
      pops[i] = Store::PutOp{ops[i].key, std::span<const ColumnUpdate>(&upd[i], 1)};
    }
    store.multiput(std::span<Store::PutOp>(pops), s);
    for (const Store::PutOp& p : pops) {
      *fail += p.rejected;
      rows_retired += p.found;
    }
  }
  size_t scan(const Op& op) {
    size_t n = store.getrange(
        op.key, op.len, 0, [](std::string_view, std::string_view, const masstree::Row*) {
          return true;
        },
        s);
    *fail += n == 0;
    return n;
  }
};

template <typename Calls>
void run_single(Calls& calls, const Op& op) {
  switch (op.kind) {
    case OpKind::kGet:
      calls.get(op);
      break;
    case OpKind::kPut:
    case OpKind::kInsert:
      calls.put(op);
      break;
    case OpKind::kScan:
      calls.scan(op);
      break;
  }
}

// The five passes plus the mix, on one rung, once. `trace` is null for the
// warm-up round.
template <typename Calls>
Rung passes(Calls& calls, const Streams& st, const std::vector<Op>& mputs, size_t bget,
            size_t bput, TraceLog* trace, uint64_t span, const char* const names[6]) {
  Rung r;
  ThreadCounters before = calls.counters();
  r.get_ns = timed_pass(trace, span, names[0], st.gets.size(), [&] {
    for (const Op& op : st.gets) {
      calls.get(op);
    }
  });
  r.multiget_ns = timed_pass(trace, span, names[1], st.gets.size(), [&] {
    for (size_t i = 0; i < st.gets.size(); i += bget) {
      calls.multiget(std::span<const Op>(st.gets).subspan(i, std::min(bget, st.gets.size() - i)));
    }
  });
  r.put_ns = timed_pass(trace, span, names[2], st.puts.size(), [&] {
    for (const Op& op : st.puts) {
      calls.put(op);
    }
  });
  r.multiput_ns = timed_pass(trace, span, names[3], mputs.size(), [&] {
    for (size_t i = 0; i < mputs.size(); i += bput) {
      calls.multiput(std::span<const Op>(mputs).subspan(i, std::min(bput, mputs.size() - i)));
    }
  });
  uint64_t pairs = 0;
  uint64_t ts0 = now_ns();
  for (const Op& op : st.scans) {
    pairs += calls.scan(op);
  }
  uint64_t ts1 = now_ns();
  if (trace != nullptr) {
    trace->record(names[4], span, ts0, ts1, pairs);
  }
  r.scan_ns_per_pair = pairs == 0 ? 0.0 : static_cast<double>(ts1 - ts0) / static_cast<double>(pairs);
  r.mix_ns = timed_pass(trace, span, names[5], st.mix.size(), [&] {
    for (const Op& op : st.mix) {
      run_single(calls, op);
    }
  });
  uint64_t mix_gets = 0, mix_puts = 0;
  for (const Op& op : st.mix) {
    mix_gets += op.kind == OpKind::kGet;
    mix_puts += op.kind == OpKind::kPut || op.kind == OpKind::kInsert;
  }
  r.delta = counter_delta(before, calls.counters());
  r.gets = 2 * st.gets.size() + mix_gets;
  r.puts = st.puts.size() + mputs.size() + mix_puts;
  r.ops = r.gets + r.puts + st.scans.size() + (st.mix.size() - mix_gets - mix_puts);
  return r;
}

// One rung: an untimed warm-up round (first-touch page faults and cold
// allocator arenas would otherwise land on whichever rung runs first), then
// the timed round. `base_slot` keeps each round's inserts apart from every
// other round's on a shared structure.
template <typename Calls>
Rung run_rung(Calls& calls, const Streams& streams, uint64_t smix, size_t bget, size_t bput,
              unsigned base_slot, TraceLog& trace, const char* rung_name,
              const char* const names[6]) {
  Rung r;
  for (unsigned round = 0; round < 2; ++round) {
    Streams st = streams;
    unsigned slot = base_slot + 3 * round;
    reslot(&st.puts, smix, slot);
    std::vector<Op> mputs = st.puts;
    reslot(&mputs, smix, slot + 1);
    reslot(&st.mix, smix, slot + 2);
    if (round == 0) {
      Rung warm = passes(calls, st, mputs, bget, bput, nullptr, 0, names);
      r.attempted = warm.ops;
      r.all_puts = warm.puts;
      continue;
    }
    uint64_t span = trace.next_id();
    uint64_t t0 = now_ns();
    uint64_t warm = r.attempted, warm_puts = r.all_puts;
    r = passes(calls, st, mputs, bget, bput, &trace, span, names);
    r.attempted = warm + r.ops;
    r.all_puts = warm_puts + r.puts;
    trace.record(rung_name, 0, t0, now_ns(), r.ops, span);
  }
  return r;
}

inline const char* const kR1[6] = {"core.get", "core.multiget", "core.put", "core.multiput",
                                   "core.scan", "core.mix"};
inline const char* const kR2[6] = {"cache.get", "cache.multiget", "cache.put", "cache.multiput",
                                   "cache.scan", "cache.mix"};
inline const char* const kR3[6] = {"kvstore.get", "kvstore.multiget", "kvstore.put",
                                   "kvstore.multiput", "kvstore.scan", "kvstore.mix"};
inline const char* const kR4[6] = {"log.get", "log.multiget", "log.put", "log.multiput",
                                   "log.scan", "log.mix"};

inline void load_store(Store& store, Store::Session& s, const std::vector<std::string>& keys,
                       Workload w, uint64_t smix) {
  constexpr size_t kBatch = 512;
  std::vector<std::string> vals;
  std::vector<ColumnUpdate> upd;
  std::vector<Store::PutOp> ops;
  for (size_t i = 0; i < keys.size(); i += kBatch) {
    size_t n = std::min(kBatch, keys.size() - i);
    vals.resize(n);
    upd.resize(n);
    ops.resize(n);
    for (size_t j = 0; j < n; ++j) {
      vals[j] = w == Workload::kYcsbALogged ? make_versioned(smix, static_cast<uint32_t>(i + j), 0)
                                            : plain_value(smix, keys[i + j]);
      upd[j] = ColumnUpdate{0, vals[j]};
      ops[j] = Store::PutOp{keys[i + j], std::span<const ColumnUpdate>(&upd[j], 1)};
    }
    store.multiput(std::span<Store::PutOp>(ops), s);
  }
}

// R5: the mix in frames through a real Client and a one-worker Server.
inline size_t loop_round_trip(Client& c, std::span<const Op> ops) {
  for (const Op& op : ops) {
    switch (op.kind) {
      case OpKind::kGet:
        c.get(op.key);
        break;
      case OpKind::kPut:
      case OpKind::kInsert:
        c.put(op.key, {{0, op.value}});
        break;
      case OpKind::kScan:
        c.scan(op.key, op.len, 0);
        break;
    }
  }
  size_t bad = 0;
  for (const Client::Result& r : c.flush()) {
    bad += r.status != NetStatus::kOk;
  }
  return bad;
}

}  // namespace ladder_detail

struct LadderInputs {
  Workload w;
  uint64_t seed;
  size_t batch_get;   // keys per multiget: the served run's formed batch
  size_t batch_put;   // ops per multiput: likewise
  unsigned frame_ops; // ops per R5 frame
  std::string workdir;
};

struct LadderResult {
  Metrics metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
};

inline LadderResult run_ladder(const LadderInputs& in, TraceLog& trace) {
  using namespace ladder_detail;
  LadderResult out;
  const Shape shape = shape_of(in.w);
  const uint64_t smix = seed_mix(in.seed);
  KeySet ks = make_keys(in.seed, shape.nkeys);
  const std::vector<std::string>& keys = ks.keys;
  const bool scans_only = in.w == Workload::kScanInsert;
  Streams st = make_streams(in.w, in.seed, keys, 100000, 100000, scans_only ? 20000 : 10000,
                            scans_only ? 20000 : 100000);
  const size_t bget = std::clamp<size_t>(in.batch_get, 1, masstree::kMaxMultigetBatch);
  const size_t bput = std::clamp<size_t>(in.batch_put, 1, masstree::kMaxMultigetBatch);
  uint64_t fail = 0;
  Metrics& m = out.metrics;

  // R1 + R2: a Tree of integer values, first bare, then with a cache.
  Rung r1, r2;
  {
    ThreadContext ti;
    RecordCache<Tree::Config> cache;
    Tree tree(ti);
    for (size_t i = 0; i < keys.size(); ++i) {
      uint64_t old;
      tree.insert(keys[i], i, &old, ti);
    }
    TreeCalls calls(tree, ti, &fail);
    r1 = run_rung(calls, st, smix, bget, bput, 4, trace, "rung.core", kR1);
    tree.set_record_cache(&cache);
    r2 = run_rung(calls, st, smix, bget, bput, 10, trace, "rung.cache", kR2);
    tree.set_record_cache(nullptr);
  }

  // R3, then R5 over the same store.
  Rung r3;
  double net_ns = 0;
  double node_bytes_per_key = 0;
  {
    Store store;
    Store::Session s(store, 0);
    load_store(store, s, keys, in.w, smix);
    masstree::TreeStats ts = store.stats();
    node_bytes_per_key = static_cast<double>(ts.node_bytes) / static_cast<double>(ts.keys);
    StoreCalls calls(store, s, &fail);
    size_t limbo0 = EpochManager::global().limbo_size(s.ti().slot());
    r3 = run_rung(calls, st, smix, bget, bput, 16, trace, "rung.kvstore", kR3);
    r3.rows_retired = calls.rows_retired;
    size_t limbo1 = EpochManager::global().limbo_size(s.ti().slot());
    r3.limbo_growth = limbo1 > limbo0 ? limbo1 - limbo0 : 0;

    // R5 runs the mix in frames: a warm-up round, then a timed one.
    Server server(store, Server::Options{0, 1});
    server.start();
    {
      Client client(server.port());
      for (unsigned round = 0; round < 2; ++round) {
        std::vector<Op> mix = st.mix;
        reslot(&mix, smix, 28 + round);
        uint64_t span = trace.next_id();
        uint64_t t0 = now_ns();
        net_ns = timed_pass(round == 0 ? nullptr : &trace, span, "net.mix", mix.size(), [&] {
          for (size_t i = 0; i < mix.size(); i += in.frame_ops) {
            fail += loop_round_trip(client, std::span<const Op>(mix).subspan(
                i, std::min<size_t>(in.frame_ops, mix.size() - i)));
          }
        });
        if (round == 1) {
          trace.record("rung.net", 0, t0, now_ns(), mix.size(), span);
        }
        out.attempted += mix.size();
      }
    }
    server.stop();
    out.attempted += r3.attempted;
  }

  // R4: the logged store with the default flush policy.
  Rung r4;
  double log_bytes_per_put = 0, sync_ms = 0, compression = 0;
  uint64_t syncs = 0;
  {
    std::string dir = in.workdir + "/ladder-log";
    std::filesystem::remove_all(dir);
    Store::Options opt;
    opt.log_dir = dir;
    Store store(opt);
    Store::Session s(store, 0);
    load_store(store, s, keys, in.w, smix);
    store.sync_logs();
    Store::LogTotals before = store.log_totals();
    StoreCalls calls(store, s, &fail);
    r4 = run_rung(calls, st, smix, bget, bput, 22, trace, "rung.log", kR4);
    std::vector<double> sync_times;
    for (int i = 0; i < 5; ++i) {
      uint64_t t0 = now_ns();
      store.sync_logs();
      sync_times.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
      // A few puts between syncs so each round has something to commit.
      for (size_t j = 0; j < 64 && j < st.puts.size(); ++j) {
        calls.put(st.puts[j]);
      }
    }
    store.sync_logs();
    std::sort(sync_times.begin(), sync_times.end());
    sync_ms = sync_times[sync_times.size() / 2];
    Store::LogTotals after = store.log_totals();
    syncs = after.syncs - before.syncs;
    log_bytes_per_put = static_cast<double>(after.flush_bytes - before.flush_bytes) /
                        static_cast<double>(r4.all_puts + 5 * std::min<size_t>(64, st.puts.size()));
    double logical = static_cast<double>(r4.delta.get(Counter::kLogBytesLogical));
    double physical = static_cast<double>(r4.delta.get(Counter::kLogBytesPhysical));
    compression = physical == 0 ? 0.0 : logical / physical;
  }
  std::filesystem::remove_all(in.workdir + "/ladder-log");

  auto per_k = [](uint64_t n, uint64_t base) {
    return base == 0 ? 0.0 : 1000.0 * static_cast<double>(n) / static_cast<double>(base);
  };
  const ThreadCounters& c1 = r1.delta;
  uint64_t retries = c1.get(Counter::kGetRetryFromRoot) + c1.get(Counter::kGetRetryLocal) +
                     c1.get(Counter::kPutRetryFromRoot) + c1.get(Counter::kMultigetRetry) +
                     c1.get(Counter::kMultiputRetries) + c1.get(Counter::kScanRetries);
  m.emplace_back("core.get_ns", r1.get_ns);
  m.emplace_back("core.multiget_ns_per_key", r1.multiget_ns);
  m.emplace_back("core.put_ns", r1.put_ns);
  m.emplace_back("core.multiput_ns_per_op", r1.multiput_ns);
  m.emplace_back("core.scan_ns_per_pair", r1.scan_ns_per_pair);
  m.emplace_back("core.retries_per_mop", per_k(retries, r1.ops) * 1000.0);
  m.emplace_back("core.splits_per_kput", per_k(c1.get(Counter::kPutSplit), r1.puts));
  m.emplace_back("core.node_bytes_per_key", node_bytes_per_key);

  const ThreadCounters& c2 = r2.delta;
  uint64_t hits = c2.get(Counter::kCacheHits), misses = c2.get(Counter::kCacheMisses);
  m.emplace_back("cache.hit_pct", r2.gets == 0 ? 0.0 : 100.0 * static_cast<double>(hits) /
                                                       static_cast<double>(r2.gets));
  m.emplace_back("cache.saved_ns_per_get", r1.get_ns - r2.get_ns);
  m.emplace_back("cache.invalidations_per_kget",
                 per_k(c2.get(Counter::kCacheInvalidations), r2.gets));
  m.emplace_back("cache.evictions_per_kget", per_k(c2.get(Counter::kCacheEvictions), r2.gets));
  if (hits + misses != r2.gets) {
    out.problems.push_back("cache hits + misses = " + std::to_string(hits + misses) +
                           ", gets issued on the cache rung = " + std::to_string(r2.gets));
  }

  m.emplace_back("kvstore.get_self_ns", r3.get_ns - r2.get_ns);
  m.emplace_back("kvstore.multiget_self_ns_per_key", r3.multiget_ns - r2.multiget_ns);
  m.emplace_back("kvstore.put_self_ns", r3.put_ns - r2.put_ns);
  m.emplace_back("kvstore.multiput_self_ns_per_op", r3.multiput_ns - r2.multiput_ns);
  m.emplace_back("kvstore.getrange_self_ns_per_pair", r3.scan_ns_per_pair - r2.scan_ns_per_pair);
  uint64_t reclaimed = r3.rows_retired > r3.limbo_growth ? r3.rows_retired - r3.limbo_growth : 0;
  m.emplace_back("epoch.reclaims_per_kput", per_k(reclaimed, r3.all_puts));

  m.emplace_back("log.append_ns_per_put", r4.put_ns - r3.put_ns);
  m.emplace_back("log.bytes_per_put", log_bytes_per_put);
  m.emplace_back("log.compression_ratio", compression);
  m.emplace_back("log.stalls_per_kput", per_k(r4.delta.get(Counter::kLogStalls), r4.puts));
  m.emplace_back("log.syncs", static_cast<double>(syncs));
  m.emplace_back("log.sync_ms", sync_ms);

  m.emplace_back("net.loop_ns_per_op", net_ns - r3.mix_ns);

  out.attempted += r1.attempted + r2.attempted + r4.attempted;
  out.failed += fail;
  if (fail != 0) {
    out.problems.push_back(std::to_string(fail) + " ladder calls contradicted the loaded state");
  }
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
