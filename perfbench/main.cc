// perfbench: the served-store benchmark.
//
//   perfbench --workload <get_uniform|ycsb_a_logged|scan_insert> --seed <n>
//             --seconds <s> --trace <0|1>
//
// Runs one workload against the epoll Server and Store over loopback and
// prints, as the last line of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// same served run records spans and is followed by the layer ladder
// (ladder.h), and the metrics are the per-layer ones. Scratch logs,
// checkpoints and the trace file go under .bench_run/ in the working
// directory.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common.h"
#include "ladder.h"
#include "served.h"
#include "trace.h"

namespace {

using namespace perfbench;

struct Args {
  Workload workload = Workload::kGetUniform;
  std::string workload_name;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool parse_args(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      a->workload_name = v;
      if (!parse_workload(v, &a->workload)) {
        return false;
      }
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') {
        return false;
      }
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a->seconds > 0 && a->seconds <= 600)) {
        return false;
      }
    } else if (k == "--trace") {
      if (v != "0" && v != "1") {
        return false;
      }
      a->trace = v == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !a->workload_name.empty() && a->seconds > 0 && a->trace >= 0;
}

void print_result(bool correct, uint64_t attempted, uint64_t failed, const Metrics& m,
                  const std::vector<std::string>& units) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < m.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m[i].first.c_str(), m[i].second, units[i].c_str());
  }
  std::printf("}}\n");
}

// Units of the per-layer metrics, by name prefix and suffix.
std::string layer_unit(const std::string& name) {
  auto ends = [&](const char* s) {
    std::string suf(s);
    return name.size() >= suf.size() && name.compare(name.size() - suf.size(), suf.size(), suf) == 0;
  };
  if (ends("_pct")) return "%";
  if (ends("_ms")) return "ms";
  if (ends("_us")) return "us";
  if (ends("_s")) return "s";
  if (ends("_kops")) return "kops/s";
  if (name.find("_ns") != std::string::npos) return "ns";
  if (name.find("bytes") != std::string::npos) return "B";
  if (ends("ratio") || ends("skew")) return "ratio";
  return "count";
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <get_uniform|ycsb_a_logged|scan_insert> "
                 "--seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  const std::string root = ".bench_run";
  const std::string workdir = root + "/" + a.workload_name + "-" + std::to_string(::getpid());
  try {
    std::filesystem::create_directories(workdir);
    TraceLog trace;
    TraceLog* tr = a.trace ? &trace : nullptr;
    ServedResult sr = run_served(a.workload, a.seed, a.seconds, workdir, tr);
    std::fprintf(stderr,
                 "%s seed=%llu keys=%zu (dups dropped %zu) inputs=%.3fs setup=%.3fs thr=%.1fkops/s "
                 "p50=%.1fus p99=%.1fus (%llu samples) recovery=%.3fs storage=%.1fB/write "
                 "mem=%.1fB/key ckpt=%.3fs parts=",
                 a.workload_name.c_str(), static_cast<unsigned long long>(a.seed), sr.nkeys,
                 sr.duplicates_dropped, sr.inputs_s, sr.setup_s, sr.throughput_kops, sr.latency_p50_us,
                 sr.latency_p99_us, static_cast<unsigned long long>(sr.latency_samples),
                 sr.recovery_s, sr.storage_bytes_per_write, sr.mem_bytes_per_key,
                 sr.checkpoint_write_s);
    for (uint64_t b : sr.checkpoint_part_bytes) {
      std::fprintf(stderr, "%llu ", static_cast<unsigned long long>(b));
    }
    std::fprintf(stderr, "peak_rss=%lluMB\n", static_cast<unsigned long long>(peak_rss_bytes() >> 20));
    for (const std::string& p : sr.problems) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
    }

    bool correct = sr.correct;
    uint64_t attempted = sr.attempted, failed = sr.failed;
    Metrics m;
    if (!a.trace) {
      // Latency and restart time vary too much between runs on a host whose
      // shared caches others use to be gated; they are printed above and
      // reported by the traced run instead.
      m = {{"setup_s", sr.setup_s},
           {"throughput_kops", sr.throughput_kops},
           {"storage_bytes_per_write", sr.storage_bytes_per_write},
           {"mem_bytes_per_key", sr.mem_bytes_per_key}};
      print_result(correct, attempted, failed, m, {"s", "kops/s", "B", "B"});
    } else {
      const Shape shape = shape_of(a.workload);
      auto ratio = [](uint64_t n, uint64_t d) {
        return d == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(d);
      };
      size_t bget = sr.batches_formed == 0 ? shape.frame_ops
                                           : static_cast<size_t>(ratio(sr.batched_gets,
                                                                       sr.batches_formed) + 0.5);
      size_t bput = sr.wbatches_formed == 0 ? shape.frame_ops
                                            : static_cast<size_t>(ratio(sr.batched_puts,
                                                                        sr.wbatches_formed) + 0.5);
      LadderResult lr =
          run_ladder(LadderInputs{a.workload, a.seed, bget, bput, shape.frame_ops, workdir}, trace);
      for (const std::string& p : lr.problems) {
        std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
      }
      correct = correct && lr.problems.empty();
      attempted += lr.attempted;
      failed += lr.failed;
      m = lr.metrics;
      m.emplace_back("net.get_batch_keys", ratio(sr.batched_gets, sr.batches_formed));
      m.emplace_back("net.batched_get_pct", 100.0 * ratio(sr.batched_gets, sr.gets_served));
      m.emplace_back("net.put_batch_ops", ratio(sr.batched_puts, sr.wbatches_formed));
      m.emplace_back("checkpoint.write_s", sr.checkpoint_write_s);
      uint64_t ckpt_total = 0, ckpt_max = 0;
      for (uint64_t b : sr.checkpoint_part_bytes) {
        ckpt_total += b;
        ckpt_max = std::max(ckpt_max, b);
      }
      m.emplace_back("checkpoint.bytes_per_key", ratio(ckpt_total, sr.checkpoint_records));
      m.emplace_back("checkpoint.part_skew",
                     ckpt_total == 0 ? 0.0
                                     : static_cast<double>(ckpt_max) *
                                           static_cast<double>(sr.checkpoint_part_bytes.size()) /
                                           static_cast<double>(ckpt_total));
      m.emplace_back("net.latency_p50_us", sr.latency_p50_us);
      m.emplace_back("net.latency_p99_us", sr.latency_p99_us);
      m.emplace_back("recovery.restart_s", sr.recovery_s);
      m.emplace_back("recovery.checkpoint_records", static_cast<double>(sr.checkpoint_records));
      m.emplace_back("recovery.log_entries", static_cast<double>(sr.recovery_log_entries));
      // Tracing overhead, measured: the window's slices alternate between
      // recording a span per frame and recording none.
      m.emplace_back("trace.overhead_pct",
                     sr.untraced_slice_kops == 0
                         ? 0.0
                         : 100.0 * (sr.untraced_slice_kops - sr.traced_slice_kops) /
                               sr.untraced_slice_kops);
      m.emplace_back("trace.served_kops", sr.traced_slice_kops);
      std::vector<std::string> units;
      for (const auto& [name, v] : m) {
        units.push_back(layer_unit(name));
      }
      std::string path = root + "/trace-" + a.workload_name + "-seed" + std::to_string(a.seed) +
                         ".json";
      if (!trace.write_json(path, 20000)) {
        std::fprintf(stderr, "could not write %s\n", path.c_str());
      }
      print_result(correct, attempted, failed, m, units);
    }
    std::filesystem::remove_all(workdir);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    std::error_code ec;
    std::filesystem::remove_all(workdir, ec);
    return 1;
  }
}
