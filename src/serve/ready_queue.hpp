// The whole-request dispatch loop's ready queue: the request stream read
// through an arrival cursor, merged with an ordered set of retries.
//
// Dispatch consumes ready work in (ready_us, id) order. The request array
// already is that order -- the stream contract (sorted by arrival_us, ids
// 0..n-1 in stream order) makes (arrival_us, id) ascending -- so it needs
// no copy in a tree: a cursor over the array is its front. Only retries,
// which re-enter at a backoff time, need an ordered container, and that
// set is empty in a fault-free run. The queue's front is the smaller of the
// two fronts.
//
// Whole-request fusion takes a batch that is always a PREFIX of this
// merged order (the FIFO run stops at the first mismatch), so removing a
// batch is advancing the cursor and erasing the front of the retry set.
// The continuous loop's fusion scan skips mismatches instead, so its
// batches are not prefixes and it keeps a plain std::set<Pending>.
//
// Kept as a small header type, like AvailabilityHeap, so the differential
// test (tests/ready_queue_test.cpp) can drive it against the
// std::set<Pending> reference it replaced.
#pragma once

#include <cstddef>
#include <set>
#include <vector>

#include "common/assert.hpp"
#include "serve/request.hpp"

namespace nova::serve {

/// One queued dispatch attempt: a session step waiting to be
/// (re)dispatched. Ordered by (ready time, id) so the initial queue
/// replays arrival order exactly and retries merge back deterministically.
/// Under continuous batching a session has exactly one Pending entry alive
/// at a time (its next step), so id doubles as the session identity.
struct Pending {
  double ready_us = 0.0;
  int id = 0;
  /// 1-based attempt number this entry represents (per step under
  /// continuous batching: the retry budget is per step, not per session).
  int attempt = 1;

  friend bool operator<(const Pending& a, const Pending& b) {
    if (a.ready_us != b.ready_us) return a.ready_us < b.ready_us;
    return a.id < b.id;
  }
  friend bool operator==(const Pending&, const Pending&) = default;
};

/// The (ready_us, id)-ordered queue of whole-request dispatch: every
/// request of the stream as a first attempt at its arrival, plus the
/// retries pushed back. Behaves exactly like a std::set<Pending> seeded
/// with Pending{arrival_us, id, 1} for every request (the differential
/// test holds it to that). A request id is in the queue at most once --
/// its retry is pushed only after its arrival entry was taken -- so no two
/// entries compare equal.
class ReadyQueue {
 public:
  /// `requests` must satisfy the stream contract (validated by
  /// BatchScheduler::run) and outlive the queue.
  explicit ReadyQueue(const std::vector<InferenceRequest>& requests)
      : requests_(&requests) {}
  explicit ReadyQueue(std::vector<InferenceRequest>&&) = delete;

  [[nodiscard]] bool empty() const {
    return next_ == requests_->size() && retries_.empty();
  }
  [[nodiscard]] std::size_t size() const {
    return requests_->size() - next_ + retries_.size();
  }

  /// The smallest (ready_us, id) entry; the queue must be non-empty.
  [[nodiscard]] Pending front() const {
    NOVA_EXPECTS(!empty());
    return arrival_first() ? arrival(next_) : *retries_.begin();
  }

  /// Replaces `out` with the front entry followed by the entries behind it,
  /// in order, stopping before the first entry `fits` rejects or once
  /// `out` holds `cap` entries. The front itself is taken unconditionally.
  /// The queue is unchanged; pop_front(out.size()) then removes the run.
  template <typename Fits>
  void peek_run(std::size_t cap, const Fits& fits,
                std::vector<Pending>& out) const {
    NOVA_EXPECTS(cap >= 1);
    out.clear();
    out.push_back(front());
    std::size_t cursor = next_;
    auto retry = retries_.begin();
    // Step past the front in whichever source held it.
    if (arrival_first()) {
      ++cursor;
    } else {
      ++retry;
    }
    while (out.size() < cap) {
      const bool have_arrival = cursor < requests_->size();
      const bool have_retry = retry != retries_.end();
      if (!have_arrival && !have_retry) break;
      const bool take_arrival =
          have_arrival && (!have_retry || arrival(cursor) < *retry);
      const Pending entry = take_arrival ? arrival(cursor) : *retry;
      if (!fits(entry)) break;
      out.push_back(entry);
      if (take_arrival) {
        ++cursor;
      } else {
        ++retry;
      }
    }
  }

  /// Removes the first `count` entries (count <= size()).
  void pop_front(std::size_t count) {
    NOVA_EXPECTS(count <= size());
    for (std::size_t k = 0; k < count; ++k) {
      if (arrival_first()) {
        ++next_;
      } else {
        retries_.erase(retries_.begin());
      }
    }
  }

  /// Queues a retry. Its arrival entry must already have been taken (and
  /// no other retry of the same id may be queued).
  void push(const Pending& retry) {
    NOVA_EXPECTS(retry.id >= 0 && static_cast<std::size_t>(retry.id) < next_);
    retries_.insert(retry);
  }

 private:
  [[nodiscard]] Pending arrival(std::size_t index) const {
    return Pending{(*requests_)[index].arrival_us, static_cast<int>(index),
                   1};
  }
  /// True when the front is the cursor's request rather than a retry.
  [[nodiscard]] bool arrival_first() const {
    if (next_ == requests_->size()) return false;
    return retries_.empty() || arrival(next_) < *retries_.begin();
  }

  const std::vector<InferenceRequest>* requests_;
  /// Requests [0, next_) have left the arrival source.
  std::size_t next_ = 0;
  std::set<Pending> retries_;
};

}  // namespace nova::serve
