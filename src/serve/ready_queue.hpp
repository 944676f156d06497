// The dispatch loop's queue of not-yet-started sessions: the request stream
// read through an arrival cursor, merged with an ordered set of retries.
//
// Dispatch consumes this queue in (ready_us, id) order. The request array
// already is that order -- the stream contract (sorted by arrival_us, ids
// 0..n-1 in stream order) makes (arrival_us, id) ascending -- so it needs
// no copy in a tree: a cursor over the array is its front. Only retries,
// which re-enter at a backoff time, need an ordered container, and that
// set is empty in a fault-free run. The queue's front is the smaller of the
// two fronts.
//
// Whole-request fusion takes a PREFIX of this order (its FIFO run stops at
// the first mismatch), so taking a batch only advances the cursor.
// Continuous-batching fusion skips mismatches and may take an arrival from
// behind the front; that arrival gets a tombstone, one bit per request, and
// the cursor and every walk step over tombstoned arrivals.
//
// Kept as a small header type, like TournamentTree, so the differential
// test (tests/ready_queue_test.cpp) can drive it against a std::set<Pending>
// reference.
#pragma once

#include <cstddef>
#include <set>
#include <vector>

#include "common/assert.hpp"
#include "serve/request.hpp"

namespace nova::serve {

/// One queued dispatch unit: a session's next plan step waiting to be
/// (re)dispatched. Ordered by (ready time, id) so the initial queue replays
/// arrival order exactly and retries merge back deterministically. A
/// session has exactly one Pending entry alive at a time, so id doubles as
/// the session identity.
struct Pending {
  double ready_us = 0.0;
  int id = 0;
  /// 1-based attempt number this entry represents (per step under
  /// continuous batching: the retry budget is per step, not per session).
  int attempt = 1;
  /// Index of the plan step this entry dispatches: the session's completed
  /// steps. A whole-request unit is every step of its session and always
  /// starts at 0, as does every not-yet-started session.
  int step = 0;

  friend bool operator<(const Pending& a, const Pending& b) {
    if (a.ready_us != b.ready_us) return a.ready_us < b.ready_us;
    return a.id < b.id;
  }
  friend bool operator==(const Pending&, const Pending&) = default;
};

/// The (ready_us, id)-ordered queue of not-yet-started sessions: every
/// request of the stream as a first attempt at its arrival, plus the
/// retries pushed back. Behaves exactly like a std::set<Pending> seeded
/// with Pending{arrival_us, id, 1, 0} for every request (the differential
/// test holds it to that). A request id is in the queue at most once --
/// its retry is pushed only after its arrival entry was taken -- so no two
/// entries compare equal.
class ReadyQueue {
 public:
  /// `requests` must satisfy the stream contract (validated by
  /// BatchScheduler::run) and outlive the queue.
  explicit ReadyQueue(const std::vector<InferenceRequest>& requests)
      : requests_(&requests), tombstone_(requests.size(), false) {}
  explicit ReadyQueue(std::vector<InferenceRequest>&&) = delete;

  /// A forward walk over the queue in (ready_us, id) order, from the
  /// front. Invalidated by erase and push.
  class Walk {
   public:
    [[nodiscard]] bool done() const { return done_; }
    /// The current entry; the walk must not be done().
    [[nodiscard]] const Pending& operator*() const { return current_; }
    [[nodiscard]] const Pending* operator->() const { return &current_; }
    Walk& operator++() {
      if (from_arrivals_) {
        arrival_ = queue_->live_from(arrival_ + 1);
      } else {
        ++retry_;
      }
      settle();
      return *this;
    }

   private:
    friend class ReadyQueue;
    explicit Walk(const ReadyQueue& queue)
        : queue_(&queue),
          arrival_(queue.next_),
          retry_(queue.retries_.begin()) {
      settle();
    }
    /// Points current_ at the smaller of the two sources' fronts.
    void settle() {
      const bool have_arrival = arrival_ < queue_->requests_->size();
      if (retry_ == queue_->retries_.end()) {
        done_ = !have_arrival;
        from_arrivals_ = true;
        if (have_arrival) current_ = queue_->arrival(arrival_);
        return;
      }
      from_arrivals_ =
          have_arrival && queue_->arrival(arrival_) < *retry_;
      current_ = from_arrivals_ ? queue_->arrival(arrival_) : *retry_;
    }

    const ReadyQueue* queue_;
    std::size_t arrival_;
    std::set<Pending>::const_iterator retry_;
    Pending current_;
    bool from_arrivals_ = false;
    bool done_ = false;
  };

  [[nodiscard]] bool empty() const {
    return next_ == requests_->size() && retries_.empty();
  }

  /// Starts a walk at the front, the smallest (ready_us, id) entry.
  [[nodiscard]] Walk walk() const { return Walk(*this); }

  /// Removes `entry`, which must be queued: a retry leaves the set; the
  /// arrival at the cursor advances it; any other arrival is tombstoned.
  void erase(const Pending& entry) {
    const auto index = static_cast<std::size_t>(entry.id);
    NOVA_EXPECTS(index < requests_->size());
    if (taken(index)) {
      const auto erased = retries_.erase(entry);
      NOVA_EXPECTS(erased == 1);
      return;
    }
    NOVA_EXPECTS(entry == arrival(index));
    if (index == next_) {
      next_ = live_from(next_ + 1);
    } else {
      tombstone_[index] = true;
    }
  }

  /// Queues a retry. Its arrival entry must already have been taken (and
  /// no other retry of the same id may be queued).
  void push(const Pending& retry) {
    const auto index = static_cast<std::size_t>(retry.id);
    NOVA_EXPECTS(index < requests_->size() && taken(index));
    retries_.insert(retry);
  }

 private:
  [[nodiscard]] Pending arrival(std::size_t index) const {
    return Pending{(*requests_)[index].arrival_us, static_cast<int>(index),
                   1, 0};
  }
  /// True once request `index`'s arrival entry has left the queue.
  [[nodiscard]] bool taken(std::size_t index) const {
    return index < next_ || tombstone_[index];
  }
  /// The first arrival at or after `index` still in the queue.
  [[nodiscard]] std::size_t live_from(std::size_t index) const {
    while (index < requests_->size() && tombstone_[index]) ++index;
    return index;
  }

  const std::vector<InferenceRequest>* requests_;
  /// Arrivals [0, next_) have left the queue; next_ is never tombstoned.
  std::size_t next_ = 0;
  /// Arrivals taken from behind the cursor.
  std::vector<bool> tombstone_;
  std::set<Pending> retries_;
};

}  // namespace nova::serve
