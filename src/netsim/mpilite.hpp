// MpiLite: an in-process message-passing layer in the style of the MPI
// subset the paper uses (point-to-point send/recv + barrier). Each logical
// cluster node runs as a thread; mailboxes are keyed by (src, dst, tag).
// This layer provides the *functional* data movement of the distributed
// LBM; the *timing* of the same traffic comes from netsim::SwitchModel.
//
// One transport: every message travels in a reliable envelope —
// sequence-numbered, CRC32-checksummed, with receive timeouts and bounded
// retransmit from a sender-side retained copy (the in-process stand-in for
// an ack/retransmit protocol: delivery purges the retained copy, which is
// exactly what an ack achieves). A receive whose message never arrives
// raises CommTimeout once the ReliabilityConfig budget is spent instead
// of hanging, and any rank failure flips a world-wide abort flag that
// wakes every rank blocked in recv/barrier with CommAborted, so one
// failure never deadlocks the world. An attached netsim::FaultSpec only
// injects faults into that envelope; it does not change the protocol.
#pragma once

#include <condition_variable>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "netsim/fault.hpp"
#include "netsim/tags.hpp"
#include "util/common.hpp"
#include "util/thread_annotations.hpp"
#include "util/timer.hpp"

namespace gc::netsim {

using Payload = std::vector<Real>;

class MpiLite;
class Comm;

/// Handle for a nonblocking operation (isend/irecv). Copyable: copies
/// share the operation's state, so a request can sit in several
/// wait_all batches (completion is idempotent). Completion only
/// advances inside wait/wait_all on the owning Comm — there is no
/// background progress thread, matching how MPI progress is typically
/// driven from the host loop.
class Request {
 public:
  Request() = default;

  /// False for a default-constructed handle (a valid no-op in wait_all).
  bool valid() const { return st_ != nullptr; }

  /// True once the operation completed: the send was accepted, or a
  /// matching message was delivered into this handle.
  bool done() const { return st_ && st_->done; }

  /// World-clock stamp (MpiLite::now_us) of the matched message's
  /// *enqueue* by the sender (recv) or of the send's acceptance (send).
  /// The raw material for the executed overlap-hidden-time gauge: a
  /// message whose enqueue stamp falls inside the inner-compute window
  /// cost the receiver nothing. Meaningful only once done().
  double complete_time_us() const { return st_ ? st_->complete_us : 0.0; }

 private:
  friend class Comm;
  struct State {
    int peer = -1;
    int tag = 0;
    bool done = false;
    Payload data;
    double complete_us = 0.0;
  };
  explicit Request(std::shared_ptr<State> st) : st_(std::move(st)) {}
  std::shared_ptr<State> st_;
};

/// Per-rank communicator handle (valid only inside run()).
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const;

  /// The world clock (MpiLite::now_us) that request completion stamps use.
  double now_us() const;

  /// Non-blocking send: enqueues a copy for (dst, tag).
  void send(int dst, int tag, Payload data);

  /// Blocking receive of the next message from (src, tag), FIFO order.
  /// Waits at most the ReliabilityConfig timeout/retry budget and throws
  /// CommTimeout; a world abort throws CommAborted.
  Payload recv(int src, int tag);

  /// Synchronizes all ranks. Throws CommAborted if the world aborts
  /// while waiting.
  void barrier();

  /// Global sum across ranks; every rank receives the result (naive
  /// gather-to-root + broadcast, which is all the paper's solvers need).
  double allreduce_sum(double value);

  // --- nonblocking operations -------------------------------------------
  // Matching is FIFO per (src, tag) channel: the channel's next message
  // always completes the *oldest* outstanding irecv, regardless of which
  // handle wait is called on. Do not mix blocking recv() with
  // outstanding irecv()s on the same channel — the blocking call would
  // steal a message the posted request is owed.

  /// Nonblocking send. MpiLite mailboxes are unbounded, so the send
  /// buffers immediately: the returned request is already complete and
  /// traffic/reliability accounting is identical to send(). Kept as a
  /// request so the overlap engine can treat both directions uniformly.
  Request isend(int dst, int tag, Payload data);

  /// Posts a receive for the next unclaimed message on (src, tag) and
  /// returns immediately. Complete it with wait / wait_all.
  Request irecv(int src, int tag);

  /// Blocks until `r` completes and returns its payload (moved out; a
  /// second wait on the same handle returns an empty payload). Send
  /// requests return an empty payload. Same timeout/abort contract as
  /// recv().
  Payload wait(Request& r);

  /// Completes every request in `rs` (payloads stay in the handles).
  /// Invalid (default-constructed) entries and duplicates of an already
  /// completed request are no-ops. Same timeout/abort contract as recv().
  void wait_all(std::vector<Request>& rs);

 private:
  friend class MpiLite;
  Comm(MpiLite* world, int rank) : world_(world), rank_(rank) {}

  /// Receives on the request's channel until `st` completes (the one
  /// progress loop behind wait and wait_all).
  void drive(Request::State& st);

  /// Hands a delivered message to the oldest outstanding irecv on
  /// (src, tag). `t_us` is the message's enqueue stamp.
  void fulfil_oldest(int src, int tag, Payload data, double t_us);

  MpiLite* world_;
  int rank_;
  /// Outstanding irecvs per (src, tag), in posting order.
  std::map<std::pair<int, int>, std::deque<std::shared_ptr<Request::State>>>
      pending_;
};

/// Per-rank traffic counters: messages/payload values *sent* by the rank
/// and how many times it entered a barrier. The raw material for the
/// per-rank mpi.* counters the observability layer exports.
struct RankTraffic {
  i64 messages = 0;
  i64 payload_values = 0;
  i64 barrier_waits = 0;
};

/// Receiver-side tallies of the reliable-exchange protocol, per receiving
/// rank. A fault-free world can still count timeouts: a peer that is
/// slower than one base receive wait costs the receiver a timeout.
struct ReliabilityStats {
  i64 retransmits = 0;         ///< retained copies re-injected
  i64 corrupt_detected = 0;    ///< CRC mismatches discarded
  i64 duplicates_dropped = 0;  ///< stale sequence numbers discarded
  i64 timeouts = 0;            ///< receive waits that expired
};

/// Retransmit policy of the reliable exchange. The defaults give a
/// receive about 16 s before it throws CommTimeout.
struct ReliabilityConfig {
  double recv_timeout_ms = 250;  ///< base per-attempt receive wait
  int max_retries = 10;          ///< timeout attempts before CommTimeout
  double backoff = 1.5;          ///< wait multiplier per attempt
  double max_backoff = 8.0;      ///< cap, as a multiple of the base wait
};

class MpiLite {
 public:
  explicit MpiLite(int ranks);

  int size() const { return ranks_; }

  /// Attaches (or detaches, with nullptr) a fault specification whose
  /// message faults are injected into the envelope stream and whose
  /// stalls delay barriers. Not owned; must outlive the runs it is
  /// attached for. Call between runs only.
  void set_fault_spec(FaultSpec* spec);

  void set_reliability(const ReliabilityConfig& cfg);
  const ReliabilityConfig& reliability() const { return rel_; }

  /// Runs `node_main(comm)` on `ranks` threads and joins them. Exceptions
  /// thrown by any rank are captured and rethrown (first one wins); the
  /// first failure aborts the world so that ranks blocked in recv or
  /// barrier wake with CommAborted instead of hanging forever.
  void run(const std::function<void(Comm&)>& node_main);

  /// True after a failed run() until reset() is called.
  bool aborted() const { return abort_.load(std::memory_order_acquire); }

  /// Externally aborts the world: sets the abort flag and wakes every
  /// rank blocked in recv/barrier with CommAborted — the same mechanism
  /// a failing rank triggers, exposed so a watchdog can cancel a run
  /// that is stuck past its deadline instead of waiting forever.
  /// Safe to call from any thread, including while run() is active.
  void abort() { abort_world(); }

  /// Clears the abort flag and all in-flight protocol state (mailboxes,
  /// retained copies, sequence numbers) so the world can run again after
  /// a failure — the communicator half of a checkpoint rollback.
  /// Traffic and reliability counters are cumulative and survive.
  void reset();

  /// Total messages and bytes that passed through the mailboxes (for
  /// traffic accounting and tests). Application sends only; protocol
  /// retransmits are tallied in ReliabilityStats instead.
  i64 total_messages() const GC_EXCLUDES(mu_) {
    std::lock_guard<std::mutex> lock(mu_);
    return total_messages_;
  }
  i64 total_payload_values() const GC_EXCLUDES(mu_) {
    std::lock_guard<std::mutex> lock(mu_);
    return total_values_;
  }

  /// Cumulative per-rank traffic (snapshot; copy to diff across runs).
  RankTraffic rank_traffic(int rank) const GC_EXCLUDES(mu_);

  /// Cumulative reliable-exchange tallies for one receiving rank / the
  /// whole world.
  ReliabilityStats reliability_stats(int rank) const GC_EXCLUDES(mu_);
  ReliabilityStats reliability_totals() const GC_EXCLUDES(mu_);

  /// Monotonic world clock (µs since construction). Message enqueue
  /// stamps and Request::complete_time_us share this timebase.
  double now_us() const { return clock_.seconds() * 1e6; }

 private:
  friend class Comm;

  struct Key {
    int src, dst, tag;
    bool operator<(const Key& o) const {
      if (src != o.src) return src < o.src;
      if (dst != o.dst) return dst < o.dst;
      return tag < o.tag;
    }
  };

  /// The envelope: sequence number + CRC32 of the payload bytes plus the
  /// world-clock enqueue stamp.
  struct Msg {
    u64 seq = 0;
    u32 crc = 0;
    double t_us = 0.0;
    Payload data;
  };

  void do_send(int src, int dst, int tag, Payload data) GC_EXCLUDES(mu_);
  /// Receives the next intact message in sequence on (src, dst, tag),
  /// waiting with timeout/backoff and retransmitting the retained copy
  /// after each expired wait.
  Payload do_recv(int src, int dst, int tag, double* enqueue_us = nullptr)
      GC_EXCLUDES(mu_);
  /// Drains immediately-available envelopes on `key` until sequence
  /// number `expect` is deliverable or the mailbox runs dry (handling
  /// duplicates, CRC-failure NACKs and out-of-order arrivals). Caller
  /// holds mu_.
  std::optional<Msg> poll_channel(const Key& key, u64 expect)
      GC_REQUIRES(mu_);
  void do_barrier(int rank) GC_EXCLUDES(mu_, barrier_mu_);

  /// Delivers one first-transmission envelope, through the fault filter
  /// (drop/duplicate/delay/corrupt) when a FaultSpec is attached. `crc`
  /// is the checksum of the intact payload. Caller holds mu_.
  void inject(const Key& key, u64 seq, u32 crc, Payload data)
      GC_REQUIRES(mu_);
  /// Re-injects the retained copy of (key, seq) verbatim (blackholes
  /// still swallow it). Caller holds mu_.
  void retransmit(const Key& key, u64 seq) GC_REQUIRES(mu_);
  void push_msg(const Key& key, Msg m) GC_REQUIRES(mu_);

  /// Sets the abort flag and wakes every blocked rank.
  void abort_world() GC_EXCLUDES(mu_, barrier_mu_);

  int ranks_;
  Timer clock_;
  /// Set between runs only (set_fault_spec contract); read by both the
  /// send path (under mu_) and the barrier path (under barrier_mu_), so
  /// it cannot be pinned to a single guard.
  FaultSpec* faults_ = nullptr;
  /// Same contract as faults_: written between runs, read everywhere.
  ReliabilityConfig rel_;
  std::atomic<bool> abort_{false};

  /// Canonical lock order: the mailbox lock precedes the barrier lock
  /// (do_barrier tallies traffic under mu_ before blocking on
  /// barrier_mu_; nothing under barrier_mu_ ever takes mu_).
  mutable std::mutex mu_ GC_ACQUIRED_BEFORE(barrier_mu_);
  std::condition_variable cv_;
  std::map<Key, std::queue<Msg>> mailboxes_ GC_GUARDED_BY(mu_);
  /// Dual-lock tally: the send path writes it under mu_, the barrier
  /// path under barrier_mu_ (disjoint fields), so neither guard alone
  /// covers it — deliberately left out of the GC_GUARDED_BY contract.
  std::vector<RankTraffic> rank_traffic_;
  std::vector<ReliabilityStats> rel_stats_ GC_GUARDED_BY(mu_);

  // Reliable-exchange state.
  /// Next seq to assign.
  std::map<Key, u64> send_seq_ GC_GUARDED_BY(mu_);
  /// Next seq expected.
  std::map<Key, u64> recv_next_ GC_GUARDED_BY(mu_);
  /// Unacked retained copies.
  std::map<Key, std::map<u64, Payload>> send_log_ GC_GUARDED_BY(mu_);
  /// Received out of order.
  std::map<Key, std::map<u64, Msg>> ooo_ GC_GUARDED_BY(mu_);
  /// Held-back envelopes.
  std::map<Key, Msg> delayed_ GC_GUARDED_BY(mu_);

  // Generation-counting barrier.
  mutable std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_waiting_ GC_GUARDED_BY(barrier_mu_) = 0;
  u64 barrier_generation_ GC_GUARDED_BY(barrier_mu_) = 0;

  i64 total_messages_ GC_GUARDED_BY(mu_) = 0;
  i64 total_values_ GC_GUARDED_BY(mu_) = 0;
};

}  // namespace gc::netsim
