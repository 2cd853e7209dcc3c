// Inputs shared by the served run, the layer ladder and the checker tests:
// workload settings, the seeded key set, and the two value formats.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/timing.h"
#include "workload/keys.h"

namespace perfbench {

using masstree::now_ns;
using masstree::splitmix64;

enum class Workload { kGetUniform, kYcsbALogged, kScanInsert };

inline bool parse_workload(std::string_view name, Workload* out) {
  if (name == "get_uniform") {
    *out = Workload::kGetUniform;
  } else if (name == "ycsb_a_logged") {
    *out = Workload::kYcsbALogged;
  } else if (name == "scan_insert") {
    *out = Workload::kScanInsert;
  } else {
    return false;
  }
  return true;
}

// The make-up of one workload's load. Every workload uses the same shape so
// that a change which helps one and hurts another shows as a difference
// between workloads, not between set-ups.
//
// One epoll worker serves three driver threads, one connection each, so the
// server, not the benchmark's own load generation and checking, is what
// limits throughput: requests queue at the worker and it forms full
// cross-connection batches. With two workers and two drivers the formed
// batches (60-100 keys) and the throughput of get_uniform varied by up to a
// factor of two between runs of one build.
struct Shape {
  size_t nkeys = 1000000;      // distinct preloaded keys
  unsigned conns = 3;          // client connections (<= nproc)
  unsigned driver_threads = 3; // closed-loop driver threads, conns split evenly
  unsigned server_workers = 1; // epoll workers of the Server
  unsigned frame_ops = 32;     // ops per request frame
  unsigned depth = 4;          // request frames in flight per connection
  bool logged = false;         // Store::Options::log_dir set
  double warmup_s = 1.0;       // closed loop runs this long before the window
  // Restarts timed per run (recovery_s is their median): a restart from a
  // checkpoint alone takes well under a second and varies with the host's
  // memory traffic; one that replays the log takes about half a second per
  // second of window and holds the whole log in memory, so it is made once.
  unsigned restarts = 5;
};

inline Shape shape_of(Workload w) {
  Shape s;
  if (w == Workload::kYcsbALogged) {
    s.logged = true;
    s.restarts = 1;
  } else if (w == Workload::kScanInsert) {
    s.frame_ops = 8;  // a scan answers up to 100 pairs, so frames stay ~20 KB
  }
  return s;
}

inline constexpr double kZipfTheta = 0.99;
inline constexpr unsigned kScanMaxLen = 100;
inline constexpr unsigned kInsertPct = 5;  // scan_insert: 95% scans, 5% inserts
inline constexpr unsigned kGetPct = 50;    // ycsb_a_logged: 50% gets, 50% puts
inline constexpr size_t kBigValue = 1024;  // the large put value's size
inline constexpr size_t kSmallValue = 8;

// Mixes the seed once so every derived stream differs between seeds.
inline uint64_t seed_mix(uint64_t seed) { return splitmix64(seed ^ 0xA0761D6478BD642Full); }

// ---------------------------------------------------------------------------
// Key set: decimal_key() strings (1-10 bytes, 80% 9-10 bytes, §6.1) drawn
// from a seeded index range and de-duplicated in generation order, because
// decimal_key maps distinct indices onto the same number now and then.

struct KeySet {
  std::vector<std::string> keys;          // key index -> key
  size_t duplicates_dropped = 0;
};

inline KeySet make_keys(uint64_t seed, size_t n) {
  const uint64_t base = seed_mix(seed) & 0xFFFFFFFFFFull;
  std::vector<std::pair<uint32_t, uint32_t>> cand;  // (number, generation index)
  size_t m = n + n / 256 + 64;
  for (;;) {
    cand.clear();
    cand.reserve(m);
    for (size_t i = 0; i < m; ++i) {
      uint32_t num = static_cast<uint32_t>(splitmix64(base + i) % (uint64_t{1} << 31));
      cand.emplace_back(num, static_cast<uint32_t>(i));
    }
    std::sort(cand.begin(), cand.end());
    size_t kept = 0;
    for (size_t i = 0; i < cand.size(); ++i) {
      if (kept == 0 || cand[kept - 1].first != cand[i].first) {
        cand[kept++] = cand[i];
      }
    }
    if (kept >= n) {
      cand.resize(kept);
      break;
    }
    m += m / 8;
  }
  std::sort(cand.begin(), cand.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  KeySet ks;
  size_t last_gen = cand[n - 1].second;
  ks.duplicates_dropped = last_gen + 1 - n;
  ks.keys.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ks.keys.push_back(std::to_string(cand[i].first));
  }
  return ks;
}

// Keys inserted by scan_insert: 10-digit numbers at or above 2^31, so they
// never collide with a preloaded key. `id` is unique per insert (a bijection
// on 32 bits keeps distinct ids distinct and scatters them over the range).
inline std::string fresh_key(uint64_t smix, uint32_t id) {
  uint32_t x = id ^ static_cast<uint32_t>(smix);
  x ^= x >> 16;
  x *= 0x7FEB352Du;
  x ^= x >> 15;
  x *= 0x846CA68Bu;
  x ^= x >> 16;
  return std::to_string((uint64_t{1} << 31) + x);
}

inline bool is_fresh_key(std::string_view k) {
  if (k.size() != 10) {
    return false;
  }
  uint64_t v = 0;
  for (char c : k) {
    if (c < '0' || c > '9') {
      return false;
    }
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  return v >= (uint64_t{1} << 31) && v < (uint64_t{1} << 31) + (uint64_t{1} << 32);
}

// ---------------------------------------------------------------------------
// Plain values (get_uniform, scan_insert): 8 bytes, a seeded function of the
// key bytes, so a fresh key's value is as checkable as a preloaded one's.

inline uint64_t fnv1a64(std::string_view s, uint64_t h = 0xCBF29CE484222325ull) {
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

inline std::string plain_value(uint64_t smix, std::string_view key) {
  uint64_t v = splitmix64(fnv1a64(key) ^ smix);
  std::string out(kSmallValue, '\0');
  std::memcpy(out.data(), &v, sizeof(v));
  return out;
}

// ---------------------------------------------------------------------------
// Versioned values (ycsb_a_logged): an 8-byte header packing the key index
// (24 bits), the key's write sequence number (24 bits) and a 16-bit checksum
// over index, sequence, length and body; then, for the one write in eight
// that is large, 1016 bytes of compressible text drawn from (index,
// sequence). Sequence 0 is the preloaded value and is always small.

inline constexpr uint32_t kMaxIndex = (1u << 24) - 1;
inline constexpr uint32_t kMaxSeq = (1u << 24) - 1;

inline bool versioned_is_big(uint64_t smix, uint32_t idx, uint32_t seq) {
  return seq != 0 && (splitmix64(smix ^ (uint64_t{idx} << 24 | seq) ^ 0x51ED27u) & 7) == 0;
}

inline void versioned_body(uint64_t smix, uint32_t idx, uint32_t seq, char* out, size_t n) {
  static constexpr const char* kWords[16] = {
      "masstree ", "border ", "layer ", "slice ", "version ", "epoch ", "cursor ",
      "permute ", "suffix ", "split ", "lock ", "node ", "trie ", "cache ", "log ", "key "};
  uint64_t x = splitmix64(smix + (uint64_t{idx} << 24 | seq));
  size_t pos = 0;
  while (pos < n) {
    x = splitmix64(x);
    const char* w = kWords[x & 15];
    size_t len = std::min(std::strlen(w), n - pos);
    std::memcpy(out + pos, w, len);
    pos += len;
  }
}

inline uint16_t versioned_check(uint64_t smix, uint32_t idx, uint32_t seq, std::string_view body) {
  uint64_t h = fnv1a64(body, smix ^ (uint64_t{idx} << 24 | seq) ^ (uint64_t{body.size()} << 48));
  return static_cast<uint16_t>(splitmix64(h) >> 48);
}

inline void make_versioned(uint64_t smix, uint32_t idx, uint32_t seq, std::string* out) {
  size_t size = versioned_is_big(smix, idx, seq) ? kBigValue : kSmallValue;
  out->resize(size);
  versioned_body(smix, idx, seq, out->data() + 8, size - 8);
  uint16_t check = versioned_check(smix, idx, seq, std::string_view(out->data() + 8, size - 8));
  uint64_t header = uint64_t{idx} | uint64_t{seq} << 24 | uint64_t{check} << 48;
  std::memcpy(out->data(), &header, sizeof(header));
}

inline std::string make_versioned(uint64_t smix, uint32_t idx, uint32_t seq) {
  std::string out;
  make_versioned(smix, idx, seq, &out);
  return out;
}

// Decodes and fully validates a versioned value: the header checksum and
// every byte must be exactly what make_versioned(idx, seq) produces.
inline bool decode_versioned(uint64_t smix, std::string_view v, uint32_t* idx, uint32_t* seq) {
  if (v.size() < 8) {
    return false;
  }
  uint64_t header;
  std::memcpy(&header, v.data(), sizeof(header));
  uint32_t i = static_cast<uint32_t>(header & kMaxIndex);
  uint32_t s = static_cast<uint32_t>((header >> 24) & kMaxSeq);
  size_t want = versioned_is_big(smix, i, s) ? kBigValue : kSmallValue;
  if (v.size() != want ||
      static_cast<uint16_t>(header >> 48) != versioned_check(smix, i, s, v.substr(8))) {
    return false;
  }
  char body[kBigValue];
  versioned_body(smix, i, s, body, want - 8);
  if (std::memcmp(body, v.data() + 8, want - 8) != 0) {
    return false;
  }
  *idx = i;
  *seq = s;
  return true;
}

// ---------------------------------------------------------------------------
// Small measurement helpers.

inline double seconds_between(uint64_t a_ns, uint64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) * 1e-9;
}

// Resident set size of this process, from /proc/self/statm.
inline uint64_t rss_bytes() {
  std::ifstream in("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  in >> size >> resident;
  return resident * static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
}

// Peak resident set size of this process (VmHWM in /proc/self/status).
inline uint64_t peak_rss_bytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stoull(line.substr(6)) << 10;
    }
  }
  return 0;
}

// Linear-interpolated quantile of an already sorted sample.
template <typename T>
double quantile_sorted(const std::vector<T>& v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return static_cast<double>(v[lo]) * (1.0 - frac) + static_cast<double>(v[hi]) * frac;
}

inline unsigned host_nproc() {
  long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
