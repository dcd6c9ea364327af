// Fixed-size log2 latency histogram.
//
// The trace analyzer and the kernel's streaming instrumentation accumulate
// response-time, headroom, and chain-latency distributions. Consistent with
// the kernel's small-memory ethos the histogram is a fixed array of
// power-of-two buckets — no heap, O(1) insert — sized so bucket 0 holds
// sub-microsecond samples and the last bucket everything from ~2.3 minutes
// up. It lives in base (not obs) because KernelStats embeds histograms for
// the snapshot ring.

#ifndef SRC_BASE_LOG2_HISTOGRAM_H_
#define SRC_BASE_LOG2_HISTOGRAM_H_

#include <bit>
#include <cstdint>

#include "src/base/time.h"

namespace emeralds {

class Log2Histogram {
 public:
  // Bucket i covers [2^i us, 2^(i+1) us); bucket 0 additionally absorbs
  // everything below 1 us, the last bucket everything above its floor.
  static constexpr int kNumBuckets = 28;

  void Add(Duration value) {
    ++count_;
    total_ += value;
    if (count_ == 1 || value < min_) {
      min_ = value;
    }
    if (value > max_) {
      max_ = value;
    }
    ++buckets_[BucketIndex(value)];
  }

  static int BucketIndex(Duration value) {
    int64_t us = value.micros();
    if (us <= 0) {
      return 0;
    }
    int index = std::bit_width(static_cast<uint64_t>(us)) - 1;
    return index < kNumBuckets ? index : kNumBuckets - 1;
  }

  // Inclusive lower edge of bucket `index` in microseconds.
  static int64_t BucketFloorUs(int index) { return index == 0 ? 0 : int64_t{1} << index; }

  uint64_t count() const { return count_; }
  uint64_t bucket(int index) const { return buckets_[index]; }
  Duration min() const { return min_; }
  Duration max() const { return max_; }
  Duration total() const { return total_; }
  Duration mean() const {
    return count_ > 0 ? total_ / static_cast<int64_t>(count_) : Duration();
  }

  // Lossless merge: bucket-wise sum plus exact min/max/count/total. A merge
  // of sketches is bucket-identical to the sketch of the concatenated sample
  // streams (the property test in tests/obs/telemetry_test.cc), which is what
  // makes per-node histograms aggregable into exact fleet-wide tables.
  void Merge(const Log2Histogram& other) {
    if (other.count_ == 0) {
      return;
    }
    if (count_ == 0 || other.min_ < min_) {
      min_ = other.min_;
    }
    if (other.max_ > max_) {
      max_ = other.max_;
    }
    count_ += other.count_;
    total_ += other.total_;
    for (int i = 0; i < kNumBuckets; ++i) {
      buckets_[i] += other.buckets_[i];
    }
  }

  // Inverse of Merge over a telescoping pair: given two *cumulative*
  // sketches of the same sample stream taken at instants t0 <= t1, returns
  // the sketch of the samples that arrived in (t0, t1]. Buckets, count and
  // total are exact subtractions. min/max carry the *cumulative* extremes of
  // `cur` (a running min never rises and a running max never falls, so the
  // window that contains the extreme sample owns the true value and every
  // later window repeats it): merging all window deltas of a run in any
  // order reproduces the whole-run cumulative sketch bit-identically in
  // every field — the telescoping property tests/obs/timeseries_test.cc
  // locks down. As a standalone window statistic the carried min/max are
  // conservative bounds, not per-window extremes.
  static Log2Histogram Delta(const Log2Histogram& cur, const Log2Histogram& prev) {
    Log2Histogram d;
    d.count_ = cur.count_ - prev.count_;
    if (d.count_ == 0) {
      return d;
    }
    d.total_ = cur.total_ - prev.total_;
    d.min_ = cur.min_;
    d.max_ = cur.max_;
    for (int i = 0; i < kNumBuckets; ++i) {
      d.buckets_[i] = cur.buckets_[i] - prev.buckets_[i];
    }
    return d;
  }

  // Upper bound on the `fraction` percentile: the upper edge of the first
  // bucket at which the running count reaches `fraction` of the samples,
  // clamped by the exact max. Every true percentile is <= this bound, and the
  // bound is tight at bucket granularity — it survives Merge() exactly, so
  // fleet-wide percentile tables over merged histograms are bucket-exact.
  // `fraction` in (0, 1]; zero duration when empty.
  Duration PercentileBound(double fraction) const {
    if (count_ == 0) {
      return Duration();
    }
    uint64_t target = static_cast<uint64_t>(fraction * static_cast<double>(count_));
    if (target < 1) {
      target = 1;
    }
    uint64_t seen = 0;
    for (int i = 0; i < kNumBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= target) {
        if (i == kNumBuckets - 1) {
          return max_;  // the overflow bucket is unbounded above
        }
        Duration upper = Microseconds(int64_t{1} << (i + 1));
        return upper < max_ ? upper : max_;
      }
    }
    return max_;
  }

  // Historical name for PercentileBound (the single-node reports use it).
  Duration ApproxPercentile(double fraction) const { return PercentileBound(fraction); }

  // Index of the last non-empty bucket (-1 when empty); printers use it to
  // bound their loops.
  int HighestBucket() const {
    for (int i = kNumBuckets - 1; i >= 0; --i) {
      if (buckets_[i] > 0) {
        return i;
      }
    }
    return -1;
  }

 private:
  uint64_t buckets_[kNumBuckets] = {};
  uint64_t count_ = 0;
  Duration min_;
  Duration max_;
  Duration total_;
};

}  // namespace emeralds

#endif  // SRC_BASE_LOG2_HISTOGRAM_H_
