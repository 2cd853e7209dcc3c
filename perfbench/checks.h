// Answer checkers. Each takes what the server or store returned plus state
// the benchmark computed itself, and says whether the answer is legal. They
// are pure functions so checks_test.cc can feed them corrupted inputs.

#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common.h"

namespace perfbench {

// get_uniform: every get finds its key and returns the key's plain value.
inline bool check_plain_get(uint64_t smix, std::string_view key, bool found,
                            std::string_view value) {
  return found && value == plain_value(smix, key);
}

// ycsb_a_logged gets. Each connection writes only its own partition of the
// keys, and the server applies one connection's ops in order, so:
//  * on a key the reader owns, the answer is exactly the reader's last write
//    sent before the get (lo == hi == that sequence number);
//  * on any other key, the answer is a write of that key no older than the
//    last write acknowledged before the get was sent (lo) and no newer than
//    the last write issued when the answer arrived (hi).
inline bool check_versioned_get(uint64_t smix, uint32_t idx, bool found, std::string_view value,
                                uint32_t lo, uint32_t hi) {
  uint32_t got_idx = 0, got_seq = 0;
  if (!found || !decode_versioned(smix, value, &got_idx, &got_seq)) {
    return false;
  }
  return got_idx == idx && got_seq >= lo && got_seq <= hi;
}

// scan_insert scans. `sorted` holds every preloaded key in byte order, as a
// copy whose short keys sit inline and side by side, so walking a scan's
// range reads adjacent memory; keys that are not preloaded must be
// scan_insert's fresh keys. A legal answer
//  * has at most `limit` pairs, strictly ascending, the first at or after
//    `start`;
//  * carries each key's plain value;
//  * contains every preloaded key between `start` and its last key;
//  * is short only when no preloaded key lies past its last key.
inline bool check_scan(uint64_t smix, const std::vector<std::string>& sorted,
                       std::string_view start, uint32_t limit,
                       const std::vector<std::pair<std::string, std::string>>& pairs) {
  if (pairs.size() > limit) {
    return false;
  }
  auto it = std::lower_bound(sorted.begin(), sorted.end(), start);
  std::string_view prev;
  for (size_t i = 0; i < pairs.size(); ++i) {
    std::string_view k = pairs[i].first;
    if ((i == 0 && k < start) || (i > 0 && k <= prev)) {
      return false;
    }
    if (pairs[i].second != plain_value(smix, k)) {
      return false;
    }
    if (it != sorted.end() && std::string_view(*it) < k) {
      return false;  // a preloaded key inside the range is missing
    }
    if (it != sorted.end() && std::string_view(*it) == k) {
      ++it;
    } else if (!is_fresh_key(k)) {
      return false;  // a key nobody wrote
    }
    prev = k;
  }
  return pairs.size() == limit || it == sorted.end();
}

// After recovery: the recovered value of every key equals the last write
// the oracle saw acknowledged. `expected[i]` and `recovered[i]` are the
// values of key i (recovered[i].first == false: key missing). Returns the
// number of keys that differ.
inline size_t count_recovery_mismatches(
    const std::vector<std::string>& expected,
    const std::vector<std::pair<bool, std::string>>& recovered) {
  size_t bad = expected.size() > recovered.size() ? expected.size() - recovered.size() : 0;
  for (size_t i = 0; i < std::min(expected.size(), recovered.size()); ++i) {
    if (!recovered[i].first || recovered[i].second != expected[i]) {
      ++bad;
    }
  }
  return bad;
}

// The server's own count of ops executed must equal the ops the driver saw
// answered. Returns how far apart they are.
inline uint64_t ops_served_gap(uint64_t served, uint64_t acked) {
  return served > acked ? served - acked : acked - served;
}

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
