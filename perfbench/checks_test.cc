// Tests of the benchmark's answer checkers: each must accept a correct
// input and reject a deliberately corrupted copy of it.
//
//   ctest --test-dir .bench_build   (or run perfbench_checks directly)

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "common.h"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  } else {
    std::fprintf(stderr, "ok:   %s\n", what);
  }
}

constexpr uint64_t kSeed = 42;

std::vector<std::pair<std::string, std::string>> scan_of(const std::vector<std::string>& sorted,
                                                         size_t from, size_t n, uint64_t smix) {
  std::vector<std::pair<std::string, std::string>> out;
  for (size_t i = from; i < std::min(sorted.size(), from + n); ++i) {
    out.emplace_back(sorted[i], plain_value(smix, sorted[i]));
  }
  return out;
}

void test_plain_get() {
  uint64_t smix = seed_mix(kSeed);
  std::string key = "123456789";
  std::string v = plain_value(smix, key);
  expect(check_plain_get(smix, key, true, v), "plain get: correct value accepted");
  std::string flipped = v;
  flipped[3] ^= 0x01;
  expect(!check_plain_get(smix, key, true, flipped), "plain get: flipped value byte rejected");
  expect(!check_plain_get(smix, key, false, v), "plain get: missing key rejected");
}

void test_versioned_get() {
  uint64_t smix = seed_mix(kSeed);
  // Find one small and one large value so both formats are covered.
  for (uint32_t seq = 1; seq < 64; ++seq) {
    std::string v = make_versioned(smix, 77, seq);
    expect(check_versioned_get(smix, 77, true, v, seq, seq), "versioned get: exact write accepted");
    expect(!check_versioned_get(smix, 77, true, v, seq + 1, seq + 3),
           "versioned get: write older than the acked one rejected");
    expect(!check_versioned_get(smix, 78, true, v, 0, 100), "versioned get: other key's value rejected");
    for (size_t pos : {size_t{0}, size_t{5}, v.size() - 1}) {
      std::string flipped = v;
      flipped[pos] ^= 0x20;
      expect(!check_versioned_get(smix, 77, true, flipped, 0, 100),
             "versioned get: flipped value byte rejected");
    }
    if (v.size() == kBigValue) {
      break;  // seq 1.. covered a small value before reaching a large one
    }
  }
}

void test_scan() {
  uint64_t smix = seed_mix(kSeed);
  KeySet ks = make_keys(kSeed, 5000);
  std::vector<std::string> sorted = ks.keys;
  std::sort(sorted.begin(), sorted.end());
  auto good = scan_of(sorted, 100, 50, smix);
  expect(check_scan(smix, sorted, sorted[100], 50, good), "scan: correct range accepted");

  auto with_fresh = good;
  std::string fresh = fresh_key(smix, 9);
  with_fresh.insert(std::upper_bound(with_fresh.begin(), with_fresh.end(),
                                     std::make_pair(fresh, std::string())),
                    {fresh, plain_value(smix, fresh)});
  with_fresh.pop_back();
  expect(check_scan(smix, sorted, sorted[100], 50, with_fresh),
         "scan: an inserted fresh key inside the range accepted");

  auto dropped = good;
  dropped.erase(dropped.begin() + 20);
  expect(!check_scan(smix, sorted, sorted[100], 50, dropped), "scan: dropped preloaded key rejected");

  auto swapped = good;
  std::swap(swapped[10], swapped[11]);
  expect(!check_scan(smix, sorted, sorted[100], 50, swapped), "scan: swapped pairs rejected");

  auto flipped = good;
  flipped[7].second[0] ^= 0x01;
  expect(!check_scan(smix, sorted, sorted[100], 50, flipped), "scan: flipped value byte rejected");

  auto early = good;
  early.insert(early.begin(), {std::string(sorted[99]), plain_value(smix, sorted[99])});
  early.pop_back();
  expect(!check_scan(smix, sorted, sorted[100], 50, early), "scan: pair before the start key rejected");

  auto shorter = scan_of(sorted, 100, 30, smix);
  expect(!check_scan(smix, sorted, sorted[100], 50, shorter),
         "scan: short answer before the end of the key space rejected");
  auto tail = scan_of(sorted, sorted.size() - 10, 50, smix);
  expect(check_scan(smix, sorted, sorted[sorted.size() - 10], 50, tail),
         "scan: short answer at the end of the key space accepted");

  auto unknown = good;
  unknown[5].first += "x";
  unknown[5].second = plain_value(smix, unknown[5].first);
  expect(!check_scan(smix, sorted, sorted[100], 50, unknown), "scan: key nobody wrote rejected");
}

void test_recovery() {
  uint64_t smix = seed_mix(kSeed);
  std::vector<std::string> expected;
  std::vector<std::pair<bool, std::string>> recovered;
  for (uint32_t i = 0; i < 100; ++i) {
    expected.push_back(make_versioned(smix, i, i % 7));
    recovered.emplace_back(true, expected.back());
  }
  expect(count_recovery_mismatches(expected, recovered) == 0, "recovery: exact state accepted");
  auto lost = recovered;
  lost[40].second = make_versioned(smix, 40, 40 % 7 - 1);
  expect(count_recovery_mismatches(expected, lost) == 1,
         "recovery: acked write missing (older value) rejected");
  auto missing = recovered;
  missing[3] = {false, ""};
  expect(count_recovery_mismatches(expected, missing) == 1, "recovery: missing key rejected");
}

void test_ops_served() {
  expect(ops_served_gap(1000, 1000) == 0, "ops served: equal counts accepted");
  expect(ops_served_gap(1001, 1000) == 1, "ops served: count off by one (+1) rejected");
  expect(ops_served_gap(999, 1000) == 1, "ops served: count off by one (-1) rejected");
}

void test_keys() {
  KeySet ks = make_keys(kSeed, 20000);
  std::vector<std::string> sorted = ks.keys;
  std::sort(sorted.begin(), sorted.end());
  expect(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end() && sorted.size() == 20000,
         "keys: de-duplicated to the requested count");
  expect(make_keys(kSeed, 20000).keys == ks.keys, "keys: same seed gives the same keys");
  expect(make_keys(kSeed + 1, 20000).keys != ks.keys, "keys: another seed gives other keys");
  bool none_fresh = std::none_of(ks.keys.begin(), ks.keys.end(), is_fresh_key);
  expect(none_fresh && is_fresh_key(fresh_key(1, 2)), "keys: fresh keys never collide with preloaded ones");
}

}  // namespace

int main() {
  test_plain_get();
  test_versioned_get();
  test_scan();
  test_recovery();
  test_ops_served();
  test_keys();
  std::fprintf(stderr, "%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
