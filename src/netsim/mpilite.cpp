#include "netsim/mpilite.hpp"

#include <chrono>
#include <cmath>
#include <exception>
#include <thread>

#include "util/checksum.hpp"

namespace gc::netsim {

int Comm::size() const { return world_->size(); }

double Comm::now_us() const { return world_->now_us(); }

void Comm::send(int dst, int tag, Payload data) {
  world_->do_send(rank_, dst, tag, std::move(data));
}

Payload Comm::recv(int src, int tag) {
  return world_->do_recv(src, rank_, tag);
}

void Comm::barrier() { world_->do_barrier(rank_); }

Request Comm::isend(int dst, int tag, Payload data) {
  auto st = std::make_shared<Request::State>();
  st->peer = dst;
  st->tag = tag;
  world_->do_send(rank_, dst, tag, std::move(data));
  st->done = true;
  st->complete_us = world_->now_us();
  return Request(std::move(st));
}

Request Comm::irecv(int src, int tag) {
  GC_CHECK_MSG(src >= 0 && src < world_->size(),
               "irecv from invalid rank " << src);
  auto st = std::make_shared<Request::State>();
  st->peer = src;
  st->tag = tag;
  pending_[{src, tag}].push_back(st);
  return Request(std::move(st));
}

void Comm::fulfil_oldest(int src, int tag, Payload data, double t_us) {
  auto& q = pending_[{src, tag}];
  GC_CHECK_MSG(!q.empty(), "message on (src " << src << ", tag " << tag
                               << ") with no outstanding irecv");
  std::shared_ptr<Request::State> st = std::move(q.front());
  q.pop_front();
  st->data = std::move(data);
  st->complete_us = t_us;
  st->done = true;
}

void Comm::drive(Request::State& st) {
  while (!st.done) {
    double t_us = 0.0;
    Payload p = world_->do_recv(st.peer, rank_, st.tag, &t_us);
    fulfil_oldest(st.peer, st.tag, std::move(p), t_us);
  }
}

Payload Comm::wait(Request& r) {
  GC_CHECK_MSG(r.valid(), "wait on an invalid request");
  drive(*r.st_);
  return std::move(r.st_->data);
}

void Comm::wait_all(std::vector<Request>& rs) {
  for (Request& r : rs) {
    if (r.valid()) drive(*r.st_);
  }
}

double Comm::allreduce_sum(double value) {
  // A payload holds Reals, so the double's bytes travel unchanged in two
  // of them: converting it to one Real would round it.
  auto encode = [](double v) {
    Payload p(2);
    static_assert(sizeof(double) == 2 * sizeof(Real));
    std::memcpy(p.data(), &v, sizeof(double));
    return p;
  };
  auto decode = [](const Payload& p) {
    double v;
    GC_CHECK(p.size() == 2);
    std::memcpy(&v, p.data(), sizeof(double));
    return v;
  };

  const int n = size();
  if (n == 1) return value;
  if (rank() == 0) {
    double total = value;
    for (int r = 1; r < n; ++r) {
      total += decode(world_->do_recv(r, 0, kAllreduceGather));
    }
    for (int r = 1; r < n; ++r) {
      world_->do_send(0, r, kAllreduceBcast, encode(total));
    }
    return total;
  }
  world_->do_send(rank_, 0, kAllreduceGather, encode(value));
  return decode(world_->do_recv(0, rank_, kAllreduceBcast));
}

MpiLite::MpiLite(int ranks)
    : ranks_(ranks),
      rank_traffic_(static_cast<std::size_t>(ranks)),
      rel_stats_(static_cast<std::size_t>(ranks)) {
  GC_CHECK_MSG(ranks >= 1, "MpiLite needs at least one rank");
}

void MpiLite::set_fault_spec(FaultSpec* spec) {
  // Both locks: do_barrier reads faults_ under barrier_mu_ only.
  std::scoped_lock lock(mu_, barrier_mu_);
  faults_ = spec;
}

void MpiLite::set_reliability(const ReliabilityConfig& cfg) {
  GC_CHECK_MSG(cfg.recv_timeout_ms > 0 && cfg.max_retries >= 1 &&
                   cfg.backoff >= 1 && cfg.max_backoff >= 1,
               "invalid reliability config");
  std::lock_guard<std::mutex> lock(mu_);
  rel_ = cfg;
}

RankTraffic MpiLite::rank_traffic(int rank) const {
  GC_CHECK_MSG(rank >= 0 && rank < ranks_, "invalid rank " << rank);
  std::scoped_lock lock(mu_, barrier_mu_);
  return rank_traffic_[static_cast<std::size_t>(rank)];
}

ReliabilityStats MpiLite::reliability_stats(int rank) const {
  GC_CHECK_MSG(rank >= 0 && rank < ranks_, "invalid rank " << rank);
  std::lock_guard<std::mutex> lock(mu_);
  return rel_stats_[static_cast<std::size_t>(rank)];
}

ReliabilityStats MpiLite::reliability_totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  ReliabilityStats total;
  for (const ReliabilityStats& s : rel_stats_) {
    total.retransmits += s.retransmits;
    total.corrupt_detected += s.corrupt_detected;
    total.duplicates_dropped += s.duplicates_dropped;
    total.timeouts += s.timeouts;
  }
  return total;
}

void MpiLite::reset() {
  std::scoped_lock lock(mu_, barrier_mu_);
  mailboxes_.clear();
  send_seq_.clear();
  recv_next_.clear();
  send_log_.clear();
  ooo_.clear();
  delayed_.clear();
  barrier_waiting_ = 0;
  abort_.store(false, std::memory_order_release);
}

void MpiLite::abort_world() {
  abort_.store(true, std::memory_order_release);
  // Lock-then-notify so a rank between checking the predicate and
  // blocking cannot miss the wakeup.
  { std::lock_guard<std::mutex> lock(mu_); }
  cv_.notify_all();
  { std::lock_guard<std::mutex> lock(barrier_mu_); }
  barrier_cv_.notify_all();
}

void MpiLite::run(const std::function<void(Comm&)>& node_main) {
  GC_CHECK_MSG(!aborted(),
               "MpiLite world is aborted from a previous failure; call "
               "reset() before running again");
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(ranks_));
  std::mutex err_mu;
  std::exception_ptr first_error;

  for (int r = 0; r < ranks_; ++r) {
    threads.emplace_back([this, r, &node_main, &err_mu, &first_error] {
      try {
        Comm comm(this, r);
        node_main(comm);
      } catch (...) {
        // Record before aborting: ranks woken by the abort throw
        // CommAborted only after this store, so the root cause wins.
        {
          std::lock_guard<std::mutex> lock(err_mu);
          if (!first_error) first_error = std::current_exception();
        }
        abort_world();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void MpiLite::push_msg(const Key& key, Msg m) {
  mailboxes_[key].push(std::move(m));
}

void MpiLite::inject(const Key& key, u64 seq, u32 crc, Payload data) {
  Msg m;
  m.seq = seq;
  m.crc = crc;
  m.t_us = now_us();
  m.data = std::move(data);
  FaultSpec* f = faults_;
  if (!f) {
    push_msg(key, std::move(m));
    return;
  }
  if (f->blackholed(key.src, key.dst, key.tag)) return;
  if (f->roll(FaultKind::Drop, key.src, key.dst, key.tag, seq)) return;

  if (f->roll(FaultKind::Corrupt, key.src, key.dst, key.tag, seq) &&
      !m.data.empty()) {
    const u64 bit = f->corrupt_bit(key.src, key.dst, key.tag, seq,
                                   static_cast<u64>(m.data.size()) *
                                       sizeof(Real) * 8);
    auto* bytes = reinterpret_cast<unsigned char*>(m.data.data());
    bytes[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
  }
  const bool dup = f->roll(FaultKind::Duplicate, key.src, key.dst, key.tag,
                           seq);
  if (f->roll(FaultKind::Delay, key.src, key.dst, key.tag, seq) &&
      delayed_.find(key) == delayed_.end()) {
    // Held back until the channel's next message passes it (reorder); a
    // receive timeout retransmit covers the no-next-message case.
    delayed_.emplace(key, std::move(m));
    return;
  }
  if (dup) push_msg(key, m);
  push_msg(key, std::move(m));
  auto dit = delayed_.find(key);
  if (dit != delayed_.end()) {
    push_msg(key, std::move(dit->second));
    delayed_.erase(dit);
  }
}

void MpiLite::retransmit(const Key& key, u64 seq) {
  auto lit = send_log_.find(key);
  if (lit == send_log_.end()) return;
  auto it = lit->second.find(seq);
  if (it == lit->second.end()) return;  // not sent yet, or already acked
  if (faults_ && faults_->blackholed(key.src, key.dst, key.tag)) return;
  Msg m;
  m.seq = seq;
  m.crc = crc32(it->second.data(), it->second.size() * sizeof(Real));
  m.t_us = now_us();
  m.data = it->second;
  push_msg(key, std::move(m));
  ++rel_stats_[static_cast<std::size_t>(key.dst)].retransmits;
}

void MpiLite::do_send(int src, int dst, int tag, Payload data) {
  GC_CHECK_MSG(dst >= 0 && dst < ranks_, "send to invalid rank " << dst);
  // Checksummed on the sender's thread, before the shared mailbox lock.
  const u32 crc = crc32(data.data(), data.size() * sizeof(Real));
  {
    std::lock_guard<std::mutex> lock(mu_);
    total_messages_ += 1;
    total_values_ += static_cast<i64>(data.size());
    RankTraffic& rt = rank_traffic_[static_cast<std::size_t>(src)];
    rt.messages += 1;
    rt.payload_values += static_cast<i64>(data.size());
    const Key key{src, dst, tag};
    const u64 seq = send_seq_[key]++;
    // Retained until the receiver delivers it (delivery is the ack).
    send_log_[key].emplace(seq, data);
    inject(key, seq, crc, std::move(data));
  }
  cv_.notify_all();
}

std::optional<MpiLite::Msg> MpiLite::poll_channel(const Key& key,
                                                  u64 expect) {
  ReliabilityStats& st = rel_stats_[static_cast<std::size_t>(key.dst)];
  auto& ooo = ooo_[key];
  for (;;) {
    auto oit = ooo.find(expect);
    if (oit != ooo.end()) {
      Msg m = std::move(oit->second);
      ooo.erase(oit);
      return m;
    }
    auto mit = mailboxes_.find(key);
    if (mit == mailboxes_.end() || mit->second.empty()) return std::nullopt;
    Msg m = std::move(mit->second.front());
    mit->second.pop();
    if (m.seq < expect || ooo.count(m.seq)) {
      ++st.duplicates_dropped;
      continue;
    }
    if (crc32(m.data.data(), m.data.size() * sizeof(Real)) != m.crc) {
      ++st.corrupt_detected;
      retransmit(key, m.seq);  // NACK: re-inject the clean retained copy
      continue;
    }
    if (m.seq > expect) {
      ooo.emplace(m.seq, std::move(m));
      continue;
    }
    return m;
  }
}

Payload MpiLite::do_recv(int src, int dst, int tag, double* enqueue_us) {
  GC_CHECK_MSG(src >= 0 && src < ranks_, "recv from invalid rank " << src);
  std::unique_lock<std::mutex> lock(mu_);
  const Key key{src, dst, tag};
  u64& next = recv_next_[key];
  const u64 expect = next;
  int attempts = 0;

  for (;;) {
    if (std::optional<Msg> m = poll_channel(key, expect)) {
      next = expect + 1;
      // Ack: purge the sender-side retained copies up to this point.
      auto lit = send_log_.find(key);
      if (lit != send_log_.end()) {
        lit->second.erase(lit->second.begin(),
                          lit->second.upper_bound(expect));
      }
      if (enqueue_us) *enqueue_us = m->t_us;
      return std::move(m->data);
    }
    if (aborted()) {
      throw CommAborted("recv aborted: another rank failed");
    }
    const double mult =
        std::min(std::pow(rel_.backoff, attempts), rel_.max_backoff);
    const auto wait =
        std::chrono::duration<double, std::milli>(rel_.recv_timeout_ms * mult);
    const bool woke = cv_.wait_for(lock, wait, [this, &key] {
      if (aborted()) return true;
      auto it = mailboxes_.find(key);
      return it != mailboxes_.end() && !it->second.empty();
    });
    if (!woke) {
      ++rel_stats_[static_cast<std::size_t>(dst)].timeouts;
      ++attempts;
      if (attempts > rel_.max_retries) {
        throw CommTimeout("recv timeout: no intact message from rank " +
                          std::to_string(src) + " tag " +
                          std::to_string(tag) + " seq " +
                          std::to_string(expect) + " after " +
                          std::to_string(attempts) + " attempts");
      }
      retransmit(key, expect);  // no-op while the sender hasn't sent yet
    }
  }
}

void MpiLite::do_barrier(int rank) {
  double stall = 0;
  {
    std::lock_guard<std::mutex> lock(barrier_mu_);
    RankTraffic& rt = rank_traffic_[static_cast<std::size_t>(rank)];
    if (faults_) stall = faults_->stall_ms(rank, rt.barrier_waits);
    rt.barrier_waits += 1;
  }
  if (stall > 0) {
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(stall));
  }
  std::unique_lock<std::mutex> lock(barrier_mu_);
  const u64 gen = barrier_generation_;
  if (++barrier_waiting_ == ranks_) {
    barrier_waiting_ = 0;
    ++barrier_generation_;
    barrier_cv_.notify_all();
  } else {
    barrier_cv_.wait(lock, [this, gen] {
      return barrier_generation_ != gen || aborted();
    });
    if (barrier_generation_ == gen && aborted()) {
      throw CommAborted("barrier aborted: another rank failed");
    }
  }
}

}  // namespace gc::netsim
