// The served run: the real epoll Server over a real Store, driven over
// loopback by a closed loop of pipelined Client connections, with every
// answer checked against state the benchmark keeps itself.
//
// Phases: key and value generation (the benchmark's own work, untimed);
// set-up, timed from Store construction through Server start and the bulk
// load through Client::multiput until it is acked (and, when logged,
// synced); a warm-up; the timed window; a drain of the frames still in
// flight; a clean shutdown; and a restart through Store::recover into a
// fresh Store whose every key is compared with the oracle.

#ifndef PERFBENCH_SERVED_H_
#define PERFBENCH_SERVED_H_

#include <dirent.h>
#include <sched.h>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "common.h"
#include "kvstore/store.h"
#include "net/client.h"
#include "net/server.h"
#include "trace.h"
#include "util/rand.h"

namespace perfbench {

using masstree::Client;
using masstree::NetStatus;
using masstree::Rng;
using masstree::Server;
using masstree::Store;
using masstree::Zipfian;

enum class OpKind : uint8_t { kGet, kPut, kScan, kInsert };

// One op of a workload's stream, as the generator makes it. `idx` is a key
// index (kInsert: the fresh-key id); `len` is a scan's limit.
struct StreamOp {
  OpKind kind;
  uint32_t idx;
  uint32_t len;
};

// The seeded op stream of one connection. ycsb_a_logged puts go only to keys
// the connection owns (key index % nconns == conn), which keeps the last
// write of every key defined by one connection's order.
class OpGen {
 public:
  OpGen(Workload w, uint64_t seed, unsigned conn, unsigned nconns, size_t nkeys)
      : w_(w),
        conn_(conn),
        nconns_(nconns),
        nkeys_(nkeys),
        rng_(seed_mix(seed) + 0x9E37 * (conn + 1)) {
    if (w == Workload::kYcsbALogged) {
      zipf_.emplace(nkeys, kZipfTheta, seed_mix(seed) ^ (0xC0FFEEull * (conn + 1)));
    }
  }

  StreamOp next() {
    switch (w_) {
      case Workload::kGetUniform:
        return {OpKind::kGet, static_cast<uint32_t>(rng_.next_range(nkeys_)), 0};
      case Workload::kYcsbALogged: {
        bool get = rng_.next_range(100) < kGetPct;
        uint64_t k = zipf_->next_scrambled();
        if (get) {
          return {OpKind::kGet, static_cast<uint32_t>(k), 0};
        }
        uint64_t owned = k - k % nconns_ + conn_;
        if (owned >= nkeys_) {
          owned -= nconns_;
        }
        return {OpKind::kPut, static_cast<uint32_t>(owned), 0};
      }
      case Workload::kScanInsert:
        if (rng_.next_range(100) < kInsertPct) {
          return {OpKind::kInsert, next_fresh_++ * 64 + conn_, 0};
        }
        return {OpKind::kScan, static_cast<uint32_t>(rng_.next_range(nkeys_)),
                1 + static_cast<uint32_t>(rng_.next_range(kScanMaxLen))};
    }
    return {OpKind::kGet, 0, 0};
  }

  // A scan length drawn like scan_insert's (the ladder times scans on every
  // workload).
  uint32_t scan_len() { return 1 + static_cast<uint32_t>(rng_.next_range(kScanMaxLen)); }

 private:
  Workload w_;
  unsigned conn_, nconns_;
  size_t nkeys_;
  Rng rng_;
  std::optional<Zipfian> zipf_;
  uint32_t next_fresh_ = 0;
};

// What the served run measured and checked.
struct ServedResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  double inputs_s = 0;  // key and value generation, before set-up begins
  double setup_s = 0, throughput_kops = 0, latency_p50_us = 0, latency_p99_us = 0;
  // Traced run only: the window's slices alternate between recording spans
  // (odd slices) and not (even slices); the kSliceQuantile of each half.
  double traced_slice_kops = 0, untraced_slice_kops = 0;
  double recovery_s = 0, storage_bytes_per_write = 0, mem_bytes_per_key = 0;
  uint64_t latency_samples = 0;

  // Layer counts read from the Server, the Store and the recovery.
  uint64_t gets_served = 0, batched_gets = 0, batches_formed = 0;
  uint64_t batched_puts = 0, wbatches_formed = 0;
  double checkpoint_write_s = 0;
  std::vector<uint64_t> checkpoint_part_bytes;
  uint64_t checkpoint_records = 0, recovery_log_entries = 0;
  size_t duplicates_dropped = 0;
  size_t nkeys = 0;
};

namespace served_detail {

// Throughput is a high quantile over the window's 250 ms slices. On a shared
// host the slices switch, for seconds at a time, between the program's own
// rate and one about a third lower while a neighbour loads the memory
// system; interference only ever lowers a slice. The median then follows
// how much of the window the slow phases covered (1450-2120 kops/s over four
// get_uniform runs), the 90th percentile the rate the program sustains
// undisturbed (1990-2270). A slowdown confined to fewer than a tenth of the
// slices, such as a checkpoint's, does not move it; latency_p99_us and
// checkpoint.write_s show those.
inline constexpr uint64_t kSliceNs = 250000000;
inline constexpr double kSliceQuantile = 0.9;

// Threads are pinned one to a CPU: the Server's workers to the first CPUs,
// the driver (and loader) threads to the next. Left to itself the guest
// scheduler now and then put two busy threads on one CPU for a whole run
// (mostly right after the host had idled), which halved set-up speed and cut
// throughput by a fifth for that run alone.
inline std::vector<pid_t> thread_ids() {
  std::vector<pid_t> ids;
  if (DIR* d = ::opendir("/proc/self/task")) {
    while (dirent* e = ::readdir(d)) {
      if (e->d_name[0] != '.') {
        ids.push_back(static_cast<pid_t>(std::atoi(e->d_name)));
      }
    }
    ::closedir(d);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

inline void pin_thread(pid_t tid, unsigned cpu) {
  cpu_set_t m;
  CPU_ZERO(&m);
  CPU_SET(cpu % host_nproc(), &m);
  ::sched_setaffinity(tid, sizeof(m), &m);  // best effort: a failure only unpins
}

// The CPU of driver or loader thread `i`: after the server's workers.
inline unsigned client_cpu(const Shape& shape, unsigned i) {
  unsigned n = host_nproc();
  unsigned free = n > shape.server_workers ? n - shape.server_workers : n;
  return (shape.server_workers + i % free) % n;
}

struct PendingOp {
  OpKind kind;
  uint32_t idx;
  uint32_t a;  // ycsb get: lower bound or exact sequence; put: sequence; scan: limit
  bool owned;  // ycsb get on a key this connection writes
};

struct Frame {
  uint64_t send_ns;
  std::vector<PendingOp> ops;
};

struct Conn {
  std::unique_ptr<Client> client;
  std::deque<Frame> inflight;
  std::optional<OpGen> gen;
  unsigned id = 0;
  std::vector<uint32_t> inserted;  // fresh ids acked as inserted
};

struct DriverStats {
  uint64_t sent = 0, acked = 0, failed = 0;
  uint64_t writes = 0, gets = 0;
  std::vector<uint64_t> lat_ns;
  std::vector<uint64_t> slice_ops;  // ops answered in each kSliceNs of the window
  std::string first_problem;
};

// Shared, read-mostly run state.
struct Ctx {
  Workload w;
  Shape shape;
  uint64_t smix;
  const std::vector<std::string>* keys;
  const std::vector<std::string>* sorted;       // scan_insert only
  std::vector<std::atomic<uint32_t>>* issued;   // ycsb only: last sequence sent
  std::vector<std::atomic<uint32_t>>* acked;    // ycsb only: last sequence acked
  uint64_t window_start = 0, window_end = 0;
  TraceLog* trace = nullptr;
  uint64_t window_span = 0;
};

inline void send_frame(Ctx& cx, Conn& c, std::string* scratch) {
  Frame f;
  f.ops.reserve(cx.shape.frame_ops);
  for (unsigned i = 0; i < cx.shape.frame_ops; ++i) {
    StreamOp op = c.gen->next();
    PendingOp p{op.kind, op.idx, 0, false};
    switch (op.kind) {
      case OpKind::kGet:
        if (cx.w == Workload::kYcsbALogged) {
          p.owned = op.idx % cx.shape.conns == c.id;
          p.a = p.owned ? (*cx.issued)[op.idx].load(std::memory_order_relaxed)
                        : (*cx.acked)[op.idx].load(std::memory_order_acquire);
        }
        c.client->get((*cx.keys)[op.idx]);
        break;
      case OpKind::kPut: {
        uint32_t seq = (*cx.issued)[op.idx].load(std::memory_order_relaxed) + 1;
        if (seq > kMaxSeq) {
          throw std::runtime_error("sequence number overflow");
        }
        (*cx.issued)[op.idx].store(seq, std::memory_order_seq_cst);
        p.a = seq;
        make_versioned(cx.smix, op.idx, seq, scratch);
        c.client->put((*cx.keys)[op.idx], {{0, *scratch}});
        break;
      }
      case OpKind::kScan:
        p.a = op.len;
        c.client->scan((*cx.keys)[op.idx], op.len, 0);
        break;
      case OpKind::kInsert: {
        std::string k = fresh_key(cx.smix, op.idx);
        *scratch = plain_value(cx.smix, k);
        c.client->put(k, {{0, *scratch}});
        break;
      }
    }
    f.ops.push_back(p);
  }
  f.send_ns = now_ns();
  c.client->send();
  c.inflight.push_back(std::move(f));
}

inline bool check_result(Ctx& cx, Conn& c, const PendingOp& p, const Client::Result& r) {
  bool ok_status = r.status == NetStatus::kOk;
  switch (p.kind) {
    case OpKind::kGet: {
      std::string_view v = r.columns.size() == 1 ? std::string_view(r.columns[0]) : "";
      if (cx.w != Workload::kYcsbALogged) {
        return check_plain_get(cx.smix, (*cx.keys)[p.idx], ok_status && r.columns.size() == 1, v);
      }
      uint32_t hi = p.owned ? p.a : (*cx.issued)[p.idx].load(std::memory_order_seq_cst);
      return check_versioned_get(cx.smix, p.idx, ok_status && r.columns.size() == 1, v, p.a, hi);
    }
    case OpKind::kPut:
      if (!ok_status || r.inserted) {
        return false;  // every ycsb key is preloaded
      }
      (*cx.acked)[p.idx].store(p.a, std::memory_order_release);
      return true;
    case OpKind::kScan:
      return ok_status && check_scan(cx.smix, *cx.sorted, (*cx.keys)[p.idx], p.a, r.scan_items);
    case OpKind::kInsert:
      if (!ok_status || !r.inserted) {
        return false;  // fresh keys are unique
      }
      c.inserted.push_back(p.idx);
      return true;
  }
  return false;
}

inline void receive_frame(Ctx& cx, Conn& c, DriverStats& st, TraceLog::Buffer& spans) {
  std::vector<Client::Result> res = c.client->receive();
  uint64_t t = now_ns();
  Frame f = std::move(c.inflight.front());
  c.inflight.pop_front();
  for (size_t i = 0; i < f.ops.size(); ++i) {
    const PendingOp& p = f.ops[i];
    bool ok = i < res.size() && check_result(cx, c, p, res[i]);
    if (!ok) {
      ++st.failed;
      if (st.first_problem.empty()) {
        st.first_problem = "op " + std::to_string(static_cast<int>(p.kind)) + " on key index " +
                           std::to_string(p.idx) + " failed its check";
      }
    }
    st.writes += p.kind == OpKind::kPut || p.kind == OpKind::kInsert;
    st.gets += p.kind == OpKind::kGet;
  }
  st.acked += res.size();
  bool record = true;
  if (t >= cx.window_start && t < cx.window_end) {
    size_t slice = (t - cx.window_start) / kSliceNs;
    st.slice_ops[slice] += f.ops.size();
    if (f.send_ns >= cx.window_start) {
      st.lat_ns.push_back(t - f.send_ns);
    }
    record = slice % 2 == 1;
  }
  if (record) {
    spans.record("served.frame", cx.window_span, f.send_ns, t, f.ops.size());
  }
}

inline void drive(Ctx& cx, std::vector<Conn*> mine, DriverStats* st, std::string* error,
                  unsigned cpu) {
  pin_thread(0, cpu);
  try {
    TraceLog::Buffer spans(cx.trace);
    std::string scratch;
    for (Conn* c : mine) {
      for (unsigned d = 0; d < cx.shape.depth; ++d) {
        send_frame(cx, *c, &scratch);
        st->sent += cx.shape.frame_ops;
      }
    }
    bool sending = true;
    while (sending) {
      for (Conn* c : mine) {
        receive_frame(cx, *c, *st, spans);
        if (now_ns() >= cx.window_end) {
          sending = false;
        }
        if (sending) {
          send_frame(cx, *c, &scratch);
          st->sent += cx.shape.frame_ops;
        }
      }
    }
    for (Conn* c : mine) {
      while (!c->inflight.empty()) {
        receive_frame(cx, *c, *st, spans);
      }
    }
  } catch (const std::exception& e) {
    *error = e.what();
  }
}

// Bulk load through Client::multiput: one loader thread per connection, each
// pipelining 512-entry multiput ops over its contiguous slice of the keys.
inline uint64_t load(uint16_t port, const Shape& shape, const std::vector<std::string>& keys,
                     const std::vector<std::string>& values, std::string* error) {
  constexpr size_t kBatch = 512;
  constexpr unsigned kDepth = 4;
  std::vector<std::thread> threads;
  std::vector<uint64_t> ops(shape.conns, 0);
  std::vector<std::string> errors(shape.conns);
  for (unsigned c = 0; c < shape.conns; ++c) {
    threads.emplace_back([&, c] {
      pin_thread(0, client_cpu(shape, c));
      try {
        Client client(port);
        size_t lo = keys.size() * c / shape.conns, hi = keys.size() * (c + 1) / shape.conns;
        std::deque<size_t> sizes;
        auto receive = [&] {
          std::vector<Client::Result> r = client.receive();
          size_t n = sizes.front();
          sizes.pop_front();
          if (r.size() != 1 || r[0].status != NetStatus::kOk || r[0].batch.size() != n) {
            throw std::runtime_error("load: multiput refused");
          }
          for (const auto& b : r[0].batch) {
            if (!b.inserted) {
              throw std::runtime_error("load: key already present");
            }
          }
        };
        std::vector<masstree::netwire::MultiputEntry> batch;
        for (size_t i = lo; i < hi; i += kBatch) {
          batch.clear();
          for (size_t j = i; j < std::min(hi, i + kBatch); ++j) {
            batch.push_back({keys[j], {{0, values[j]}}});
          }
          if (sizes.size() == kDepth) {
            receive();
          }
          client.multiput(batch);
          client.send();
          sizes.push_back(batch.size());
          ++ops[c];
        }
        while (!sizes.empty()) {
          receive();
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  uint64_t total = 0;
  for (unsigned c = 0; c < shape.conns; ++c) {
    total += ops[c];
    if (!errors[c].empty() && error->empty()) {
      *error = errors[c];
    }
  }
  return total;
}

inline uint64_t file_size(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 ? static_cast<uint64_t>(st.st_size) : 0;
}

// Every key's recovered value must be the last acked write, and the store
// must hold exactly the oracle's keys.
inline void verify_recovered(Workload w, uint64_t smix, const std::vector<std::string>& keys,
                             const std::vector<std::string>& fresh,
                             const std::vector<std::atomic<uint32_t>>& acked, Store& rec,
                             ServedResult* out) {
  const size_t total = keys.size() + fresh.size();
  Store::Session s(rec, 0);
  constexpr size_t kChunk = 1 << 16;
  std::vector<std::string> expected;
  std::vector<std::pair<bool, std::string>> got;
  std::vector<std::string> cols;
  size_t bad = 0;
  for (size_t lo = 0; lo < total; lo += kChunk) {
    size_t hi = std::min(total, lo + kChunk);
    expected.clear();
    got.clear();
    for (size_t i = lo; i < hi; ++i) {
      const std::string& k = i < keys.size() ? keys[i] : fresh[i - keys.size()];
      if (w == Workload::kYcsbALogged) {
        expected.push_back(make_versioned(smix, static_cast<uint32_t>(i),
                                          acked[i].load(std::memory_order_relaxed)));
      } else {
        expected.push_back(plain_value(smix, k));
      }
      bool found = rec.get(k, {}, &cols, s) && cols.size() == 1;
      got.emplace_back(found, found ? cols[0] : std::string());
    }
    bad += count_recovery_mismatches(expected, got);
  }
  out->attempted += total;
  out->failed += bad;
  if (bad != 0) {
    out->correct = false;
    out->problems.push_back(std::to_string(bad) + " keys differ from the oracle after recovery");
  }
  uint64_t rec_keys = rec.stats().keys;
  if (rec_keys != total) {
    out->correct = false;
    out->problems.push_back("recovered store holds " + std::to_string(rec_keys) +
                            " keys, oracle " + std::to_string(total));
  }
}

}  // namespace served_detail

inline ServedResult run_served(Workload w, uint64_t seed, double seconds,
                               const std::string& workdir, TraceLog* trace) {
  using namespace served_detail;
  ServedResult out;
  const Shape shape = shape_of(w);
  const uint64_t smix = seed_mix(seed);
  const unsigned nproc = host_nproc();
  auto problem = [&](const std::string& what) {
    out.correct = false;
    out.problems.push_back(what);
  };

  const uint64_t t_inputs = now_ns();
  KeySet ks = make_keys(seed, shape.nkeys);
  const std::vector<std::string>& keys = ks.keys;
  out.duplicates_dropped = ks.duplicates_dropped;
  out.nkeys = keys.size();
  std::vector<std::string> sorted;  // scan_insert: the keys in byte order
  if (w == Workload::kScanInsert) {
    std::vector<std::string_view> order(keys.begin(), keys.end());
    std::sort(order.begin(), order.end());
    sorted.assign(order.begin(), order.end());
  }
  std::vector<std::string> values(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    values[i] = w == Workload::kYcsbALogged ? make_versioned(smix, static_cast<uint32_t>(i), 0)
                                            : plain_value(smix, keys[i]);
  }
  std::vector<std::atomic<uint32_t>> issued(w == Workload::kYcsbALogged ? keys.size() : 0);
  std::vector<std::atomic<uint32_t>> acked(issued.size());

  const std::string log_dir = workdir + "/log";
  const std::string ckpt_dir = workdir + "/checkpoint";
  uint64_t rss_before = rss_bytes();
  uint64_t load_ops = 0, served = 0, writes = 0;
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<DriverStats> stats(shape.driver_threads);
  const size_t nslices = std::max<size_t>(1, static_cast<size_t>(seconds * 1e9 / kSliceNs));
  for (DriverStats& st : stats) {
    st.slice_ops.assign(nslices + 1, 0);
  }
  uint64_t log_bytes = 0;
  {
    // Set-up is timed from here: the first Store of the process, so a cold one.
    const uint64_t t_setup = now_ns();
    out.inputs_s = seconds_between(t_inputs, t_setup);
    Store::Options sopt;
    if (shape.logged) {
      sopt.log_dir = log_dir;
    }
    Store store(sopt);
    Server server(store, Server::Options{0, shape.server_workers});
    const std::vector<pid_t> before = thread_ids();
    server.start();
    unsigned next_cpu = 0;
    for (pid_t tid : thread_ids()) {
      if (!std::binary_search(before.begin(), before.end(), tid)) {
        pin_thread(tid, next_cpu++);
      }
    }
    std::string error;
    uint64_t t_load = now_ns();
    load_ops = load(server.port(), shape, keys, values, &error);
    if (!error.empty()) {
      throw std::runtime_error(error);
    }
    if (shape.logged) {
      store.sync_logs();
    }
    uint64_t t_setup_done = now_ns();
    out.setup_s = seconds_between(t_setup, t_setup_done);
    out.mem_bytes_per_key =
        static_cast<double>(rss_bytes() - std::min(rss_before, rss_bytes())) /
        static_cast<double>(keys.size());
    values.clear();
    values.shrink_to_fit();
    // The load's multiputs form write batches too; only the window's count.
    const uint64_t load_batched_puts = server.batched_puts();
    const uint64_t load_wbatches = server.wbatches_formed();
    if (trace != nullptr) {
      trace->record("served.inputs", 0, t_inputs, t_setup);
      trace->record("served.start", 0, t_setup, t_load);
      trace->record("served.load", 0, t_load, t_setup_done, keys.size());
    }

    Ctx cx{w, shape, smix, &keys, &sorted, &issued, &acked};
    cx.trace = trace;
    cx.window_span = trace != nullptr ? trace->next_id() : 0;
    for (unsigned c = 0; c < shape.conns; ++c) {
      auto conn = std::make_unique<Conn>();
      conn->client = std::make_unique<Client>(server.port());
      conn->gen.emplace(w, seed, c, shape.conns, keys.size());
      conn->id = c;
      conns.push_back(std::move(conn));
    }
    uint64_t t_begin = now_ns();
    cx.window_start = t_begin + static_cast<uint64_t>(shape.warmup_s * 1e9);
    cx.window_end = cx.window_start + static_cast<uint64_t>(seconds * 1e9);
    std::vector<std::string> errors(shape.driver_threads);
    std::vector<std::thread> drivers;
    for (unsigned t = 0; t < shape.driver_threads; ++t) {
      std::vector<Conn*> mine;
      for (unsigned c = t; c < shape.conns; c += shape.driver_threads) {
        mine.push_back(conns[c].get());
      }
      drivers.emplace_back(drive, std::ref(cx), mine, &stats[t], &errors[t], client_cpu(shape, t));
    }
    if (shape.logged) {
      // One checkpoint at the window's midpoint, while the closed loop keeps
      // running. Store::truncate_logs() is not called after it: it discards
      // log records appended after the checkpoint began, so acked writes
      // the checkpoint walk had already passed would be lost on recovery.
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(cx.window_start + (cx.window_end - cx.window_start) / 2)));
      uint64_t t0 = now_ns();
      if (!store.checkpoint(ckpt_dir, nproc)) {
        problem("mid-window checkpoint failed");
      }
      uint64_t t1 = now_ns();
      out.checkpoint_write_s = seconds_between(t0, t1);
      if (trace != nullptr) {
        trace->record("served.checkpoint", cx.window_span, t0, t1);
      }
    }
    for (auto& t : drivers) {
      t.join();
    }
    for (unsigned t = 0; t < shape.driver_threads; ++t) {
      if (!errors[t].empty()) {
        throw std::runtime_error("driver: " + errors[t]);
      }
    }
    if (trace != nullptr) {
      trace->record("served.window", 0, cx.window_start, cx.window_end, 0, cx.window_span);
    }
    if (shape.logged) {
      store.sync_logs();
      log_bytes = store.log_totals().flush_bytes;
    }
    server.stop();
    served = server.ops_served();
    out.batched_gets = server.batched_gets();
    out.batches_formed = server.batches_formed();
    out.batched_puts = server.batched_puts() - load_batched_puts;
    out.wbatches_formed = server.wbatches_formed() - load_wbatches;
    for (auto& c : conns) {
      c->client.reset();
    }
    if (!shape.logged) {
      // The unlogged workloads restart from a checkpoint taken after the
      // window; ycsb_a_logged restarts from its mid-window checkpoint plus
      // the log tail.
      uint64_t t0 = now_ns();
      if (!store.checkpoint(ckpt_dir, nproc)) {
        problem("checkpoint failed");
      }
      uint64_t t1 = now_ns();
      out.checkpoint_write_s = seconds_between(t0, t1);
      if (trace != nullptr) {
        trace->record("served.checkpoint", 0, t0, t1);
      }
    }
  }  // clean shutdown: the Store's final group commit closes every log

  uint64_t acked_ops = 0;
  std::vector<uint64_t> lat;
  for (DriverStats& st : stats) {
    out.attempted += st.sent;
    out.failed += st.failed;
    writes += st.writes;
    acked_ops += st.acked;
    out.gets_served += st.gets;
    lat.insert(lat.end(), st.lat_ns.begin(), st.lat_ns.end());
    if (!st.first_problem.empty()) {
      problem(st.first_problem);
    }
  }
  uint64_t gap = ops_served_gap(served, load_ops + acked_ops);
  if (gap != 0 || acked_ops != out.attempted) {
    out.failed += gap;
    problem("Server::ops_served() is " + std::to_string(served) + ", driver acked " +
            std::to_string(load_ops + acked_ops));
  }
  std::sort(lat.begin(), lat.end());
  out.latency_samples = lat.size();
  out.latency_p50_us = quantile_sorted(lat, 0.50) * 1e-3;
  out.latency_p99_us = quantile_sorted(lat, 0.99) * 1e-3;
  std::vector<uint64_t> slices(nslices, 0);
  for (const DriverStats& st : stats) {
    for (size_t i = 0; i < nslices; ++i) {
      slices[i] += st.slice_ops[i];
    }
  }
  const double slice_kops = 1e-3 / (static_cast<double>(kSliceNs) * 1e-9);
  std::vector<uint64_t> halves[2];
  for (size_t i = 0; i < nslices; ++i) {
    halves[i % 2].push_back(slices[i]);
  }
  for (auto& h : halves) {
    std::sort(h.begin(), h.end());
  }
  out.untraced_slice_kops = quantile_sorted(halves[0], kSliceQuantile) * slice_kops;
  out.traced_slice_kops = quantile_sorted(halves[1], kSliceQuantile) * slice_kops;
  std::sort(slices.begin(), slices.end());
  out.throughput_kops = quantile_sorted(slices, kSliceQuantile) * slice_kops;

  for (unsigned p = 0;; ++p) {
    std::string path = masstree::checkpoint_part_path(ckpt_dir, p);
    if (!std::filesystem::exists(path)) {
      break;
    }
    out.checkpoint_part_bytes.push_back(file_size(path));
  }
  uint64_t ckpt_bytes = 0;
  for (uint64_t b : out.checkpoint_part_bytes) {
    ckpt_bytes += b;
  }
  out.storage_bytes_per_write = static_cast<double>(log_bytes + ckpt_bytes) /
                                static_cast<double>(keys.size() + writes);

  // Restart: a fresh Store rebuilt from the checkpoint (and the log tail),
  // shape.restarts times; recovery_s is the median. The first rebuilt store is
  // compared key by key with the oracle.
  std::vector<std::string> fresh;
  for (auto& c : conns) {
    for (uint32_t id : c->inserted) {
      fresh.push_back(fresh_key(smix, id));
    }
  }
  std::vector<double> restart_s;
  for (unsigned r = 0; r < shape.restarts; ++r) {
    Store::Options ropt;
    if (shape.logged) {
      ropt.log_dir = log_dir;
    }
    Store rec(ropt);
    uint64_t t0 = now_ns();
    Store::RecoveryResult rr = rec.recover(ckpt_dir, shape.logged ? log_dir : "", nproc);
    uint64_t t1 = now_ns();
    restart_s.push_back(seconds_between(t0, t1));
    if (trace != nullptr) {
      trace->record("served.recover", 0, t0, t1, rr.checkpoint_records + rr.log_entries_applied);
    }
    if (r > 0) {
      continue;
    }
    out.checkpoint_records = rr.checkpoint_records;
    out.recovery_log_entries = rr.log_entries_applied;
    if (!rr.used_checkpoint) {
      problem("recovery found no checkpoint");
    }
    verify_recovered(w, smix, keys, fresh, acked, rec, &out);
  }
  std::sort(restart_s.begin(), restart_s.end());
  out.recovery_s = restart_s[restart_s.size() / 2];
  return out;
}

}  // namespace perfbench

#endif  // PERFBENCH_SERVED_H_
