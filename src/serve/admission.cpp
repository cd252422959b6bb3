#include "serve/admission.h"

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "detect/incremental.h"
#include "detect/iterative.h"
#include "util/dcheck.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace rejecto::serve {

AdmissionConfig AdmissionService::Validated(AdmissionConfig config) {
  if (config.queue_capacity > MpscQueue<Command>::kMaxCapacity) {
    throw std::invalid_argument(
        "AdmissionService: queue_capacity " +
        std::to_string(config.queue_capacity) + " exceeds " +
        std::to_string(MpscQueue<Command>::kMaxCapacity));
  }
  if (config.max_readers > RcuPtr<PublishedEpoch>::kMaxSlots) {
    throw std::invalid_argument(
        "AdmissionService: max_readers " + std::to_string(config.max_readers) +
        " exceeds " + std::to_string(RcuPtr<PublishedEpoch>::kMaxSlots));
  }
  if (config.max_pending_epochs == 0) {
    throw std::invalid_argument(
        "AdmissionService: max_pending_epochs must be >= 1");
  }
  // The detection thread would otherwise meet a bad config only when its
  // first MaarSolver throws, and nothing there can catch it.
  engine::ValidateEpochConfig(config.epoch);
  return config;
}

AdmissionService::AdmissionService(graph::AugmentedGraph base,
                                   detect::Seeds seeds,
                                   AdmissionConfig config)
    : config_(Validated(std::move(config))),
      seeds_(std::move(seeds)),
      queue_(config_.queue_capacity),
      rcu_(ReclaimMode::kHazard, config_.max_readers),
      delta_(std::move(base), config_.epoch.delta) {
  seeds_.Validate(delta_.NumNodes());
  // The pool serves the detection thread ONLY. The writer compacts
  // single-threaded: sharing one pool between a writer-thread Compact and a
  // concurrent detection sweep would run two ParallelFor drivers at once.
  const int threads =
      detect::EffectiveThreads(config_.epoch.detect.maar.num_threads);
  if (threads > 1) {
    pool_ =
        std::make_shared<util::ThreadPool>(static_cast<std::size_t>(threads));
  }
  if (!config_.wal_path.empty()) {
    wal_ = std::make_unique<stream::WalWriter>(config_.wal_path, config_.wal);
  }
  PublishBootstrap(delta_.Graph());
  writer_ = std::thread(&AdmissionService::WriterLoop, this);
  detector_ = std::thread(&AdmissionService::DetectLoop, this);
}

AdmissionService::~AdmissionService() { Stop(); }

void AdmissionService::PublishBootstrap(const graph::AugmentedGraph& base) {
  auto pe = std::make_shared<PublishedEpoch>();
  pe->epoch_id = 0;
  pe->events_ingested = 0;
  pe->graph = std::make_shared<const graph::AugmentedGraph>(base);
  // has_baseline stays false: no detection has run, every sender admits.
  {
    std::lock_guard<std::mutex> lock(latest_mu_);
    latest_ = pe;
  }
  rcu_.Publish(std::move(pe));
}

void AdmissionService::AddPolicy(std::unique_ptr<AdmissionPolicy> policy) {
  if (policy == nullptr) {
    throw std::invalid_argument("AdmissionService::AddPolicy: null policy");
  }
  if (chain_frozen_.load(std::memory_order_acquire)) {
    throw std::logic_error(
        "AdmissionService::AddPolicy: chain is frozen once a reader exists");
  }
  policies_.push_back(std::move(policy));
}

AdmissionService::Command AdmissionService::EventCommand(
    const stream::Event& e) {
  if (e.type != stream::EventType::kRemoveNode && e.u == e.v) {
    throw std::invalid_argument("AdmissionService: self-edge event");
  }
  Command cmd;
  cmd.kind = Command::Kind::kEvent;
  cmd.event = e;
  return cmd;
}

bool AdmissionService::TrySubmit(const stream::Event& e) {
  const Command cmd = EventCommand(e);
  if (stopped_.load(std::memory_order_acquire)) return false;
  if (!queue_.TryPush(cmd)) return false;
  WakeWriter();
  events_submitted_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void AdmissionService::Submit(const stream::Event& e) {
  if (!Push(EventCommand(e), /*until_stopped=*/true)) {
    throw std::logic_error("AdmissionService::Submit: service stopped");
  }
  events_submitted_.fetch_add(1, std::memory_order_relaxed);
}

bool AdmissionService::Push(const Command& cmd, bool until_stopped) {
  for (;;) {
    if (until_stopped && stopped_.load(std::memory_order_acquire)) {
      return false;
    }
    if (queue_.TryPush(cmd)) break;
    // Full: announce the park, then retry once behind the fence. Either
    // the retry sees the writer's pops, or the writer sees the announcement
    // before it parks and bumps space_gen_ past `gen`.
    const std::uint32_t gen = space_gen_.load(std::memory_order_acquire);
    producers_waiting_.store(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (until_stopped && stopped_.load(std::memory_order_relaxed)) {
      return false;
    }
    if (queue_.TryPush(cmd)) break;
    space_gen_.wait(gen, std::memory_order_acquire);
  }
  WakeWriter();
  return true;
}

void AdmissionService::WakeWriter() {
  // Pairs with the writer's fence between announcing its park and its last
  // look at the ring.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (writer_parked_.load(std::memory_order_relaxed) != 0 &&
      writer_parked_.exchange(0) != 0) {
    writer_parked_.notify_one();
  }
}

void AdmissionService::WakeProducers() {
  producers_waiting_.store(0, std::memory_order_relaxed);
  space_gen_.fetch_add(1, std::memory_order_release);
  space_gen_.notify_all();
}

void AdmissionService::SignalAcks() {
  acks_.fetch_add(1, std::memory_order_release);
  acks_.notify_all();
}

std::uint64_t AdmissionService::AwaitAck(
    const std::atomic<std::uint64_t>& ack) {
  for (;;) {
    const std::uint32_t seen = acks_.load(std::memory_order_acquire);
    if (const std::uint64_t v = ack.load(std::memory_order_acquire); v != 0) {
      return v;
    }
    if (writer_exited_.load(std::memory_order_acquire)) {
      return ack.load(std::memory_order_acquire);
    }
    acks_.wait(seen, std::memory_order_acquire);
  }
}

void AdmissionService::Drain() {
  std::atomic<std::uint64_t> ack{0};
  Command cmd;
  cmd.kind = Command::Kind::kBarrier;
  cmd.ack = &ack;
  if (Push(cmd, /*until_stopped=*/true)) AwaitAck(ack);
}

std::uint64_t AdmissionService::ForceEpoch() {
  std::atomic<std::uint64_t> ack{0};
  Command cmd;
  cmd.kind = Command::Kind::kEpoch;
  cmd.ack = &ack;
  const std::uint64_t id =
      Push(cmd, /*until_stopped=*/true) ? AwaitAck(ack) : 0;
  if (id == 0) {
    throw std::logic_error("AdmissionService::ForceEpoch: service stopped");
  }
  // The job is queued; the detection thread publishes it even if Stop()
  // runs meanwhile.
  for (std::uint64_t seen = 0; (seen = PublishedEpochId()) < id;) {
    published_id_.wait(seen, std::memory_order_acquire);
  }
  return id;
}

void AdmissionService::WriterLoop() {
  const std::size_t half_ring = queue_.Capacity() / 2;
  for (;;) {
    Command cmd;
    if (!queue_.TryPop(cmd)) {
      // Announce the park, then look once more behind the fence: a
      // producer either sees the announcement after its push (and wakes
      // us) or its element is visible here. Parked producers are woken
      // first: an empty ring is below half.
      writer_parked_.store(1, std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      if (producers_waiting_.load(std::memory_order_relaxed) != 0) {
        WakeProducers();
      }
      if (!queue_.TryPop(cmd)) {
        writer_parked_.wait(1, std::memory_order_acquire);
        continue;
      }
      writer_parked_.store(0, std::memory_order_relaxed);
    } else if (producers_waiting_.load(std::memory_order_relaxed) != 0 &&
               queue_.ApproxSize() <= half_ring) {
      WakeProducers();
    }
    switch (cmd.kind) {
      case Command::Kind::kEvent: {
        if (wal_ != nullptr) wal_->Append(cmd.event);
        const bool changed = delta_.Apply(cmd.event);
        (changed ? events_applied_ : events_noop_)
            .fetch_add(1, std::memory_order_relaxed);
        events_ingested_.fetch_add(1, std::memory_order_release);
        ++events_since_snapshot_;
        if (config_.epoch.events_per_epoch > 0 &&
            events_since_snapshot_ >= config_.epoch.events_per_epoch) {
          CutSnapshot();
        }
        break;
      }
      case Command::Kind::kBarrier:
        cmd.ack->store(1, std::memory_order_release);
        SignalAcks();
        break;
      case Command::Kind::kEpoch:
        cmd.ack->store(CutSnapshot(), std::memory_order_release);
        SignalAcks();
        break;
      case Command::Kind::kStop:
        if (wal_ != nullptr) wal_->Close();
        // Nothing behind the stop command is ever popped: release every
        // producer still parked on the ring and every caller awaiting an ack
        // for a command that landed there.
        writer_exited_.store(true, std::memory_order_release);
        WakeProducers();
        SignalAcks();
        return;
    }
  }
}

std::uint64_t AdmissionService::CutSnapshot() {
  // Backpressure: an overloaded detector throttles ingest instead of
  // growing the job queue without bound.
  for (std::size_t pending = 0;
       (pending = jobs_pending_.load(std::memory_order_acquire)) >=
       config_.max_pending_epochs;) {
    backpressure_yields_.fetch_add(1, std::memory_order_relaxed);
    jobs_pending_.wait(pending, std::memory_order_acquire);
  }
  util::WallTimer timer;
  delta_.Compact();
  DetectJob job;
  job.epoch_id = next_epoch_id_++;
  job.events_ingested = events_ingested_.load(std::memory_order_relaxed);
  job.graph = std::make_shared<const graph::AugmentedGraph>(delta_.Graph());
  const double secs = timer.Seconds();
  snapshot_seconds_total_ += secs;
  last_snapshot_seconds_.store(secs, std::memory_order_relaxed);
  snapshot_seconds_published_.store(snapshot_seconds_total_,
                                    std::memory_order_relaxed);
  const std::uint64_t id = job.epoch_id;
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_.push_back(std::move(job));
  }
  jobs_pending_.fetch_add(1, std::memory_order_release);
  jobs_cv_.notify_one();
  events_since_snapshot_ = 0;
  return id;
}

void AdmissionService::DetectLoop() {
  // The warm baton chains job-to-job exactly like EpochDetector chains
  // prev_mask_/prev_k_: jobs are consumed strictly in publication order, so
  // epoch contents are bit-identical to a serial replay.
  engine::EpochWarmState warm;
  for (;;) {
    DetectJob job;
    {
      std::unique_lock<std::mutex> lock(jobs_mu_);
      jobs_cv_.wait(lock,
                    [&] { return jobs_shutdown_ || !jobs_.empty(); });
      if (jobs_.empty()) return;  // shutdown and fully drained
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }

    util::WallTimer timer;
    engine::EpochDetectionOutput out = engine::RunEpochDetection(
        *job.graph, seeds_, config_.epoch, warm, pool_.get());
    // An epoch with no rounds keeps the previous baseline, like
    // EpochDetector keeps its prev state.
    if (out.next_warm.valid) warm = std::move(out.next_warm);

    auto pe = std::make_shared<PublishedEpoch>();
    pe->epoch_id = job.epoch_id;
    pe->events_ingested = job.events_ingested;
    pe->graph = job.graph;
    pe->has_baseline = warm.valid && warm.k > 0.0;
    if (pe->has_baseline) {
      pe->mask = warm.mask;
      // Nodes created after the baseline's epoch score as outside the cut —
      // the same extension the warm mask applies.
      pe->mask.resize(job.graph->NumNodes(), 0);
      pe->k = warm.k;
      // Score every sender once here, so a decision is one table load.
      pe->gain = detect::ScoreAllSenders(*job.graph, pe->mask, pe->k,
                                         pool_.get());
    }
    pe->detected = std::move(out.result.detected);
    pe->detect_seconds = timer.Seconds();
    last_detect_seconds_.store(pe->detect_seconds,
                               std::memory_order_relaxed);

    {
      std::lock_guard<std::mutex> lock(latest_mu_);
      latest_ = pe;
    }
    rcu_.Publish(std::move(pe));
    retired_epochs_.store(rcu_.RetiredCount(), std::memory_order_relaxed);
    epochs_published_.fetch_add(1, std::memory_order_relaxed);
    published_id_.store(job.epoch_id, std::memory_order_release);
    published_id_.notify_all();
    jobs_pending_.fetch_sub(1, std::memory_order_release);
    jobs_pending_.notify_one();
  }
}

AdmissionService::Reader AdmissionService::CreateReader() {
  chain_frozen_.store(true, std::memory_order_release);
  Reader r;
  r.service_ = this;
  r.slot_ = rcu_.AcquireSlot();
  if (r.slot_ == nullptr) {
    throw std::runtime_error(
        "AdmissionService::CreateReader: reader slots exhausted (raise "
        "AdmissionConfig::max_readers)");
  }
  return r;
}

AdmissionService::Reader::Reader(Reader&& o) noexcept
    : service_(o.service_),
      slot_(o.slot_),
      hist_(o.hist_),
      decisions_(o.decisions_),
      escalated_(o.escalated_) {
  verdicts_[0] = o.verdicts_[0];
  verdicts_[1] = o.verdicts_[1];
  verdicts_[2] = o.verdicts_[2];
  o.service_ = nullptr;
  o.slot_ = nullptr;
}

AdmissionService::Reader& AdmissionService::Reader::operator=(
    Reader&& o) noexcept {
  if (this != &o) {
    if (service_ != nullptr && slot_ != nullptr) {
      service_->rcu_.ReleaseSlot(slot_);
    }
    service_ = o.service_;
    slot_ = o.slot_;
    hist_ = o.hist_;
    decisions_ = o.decisions_;
    verdicts_[0] = o.verdicts_[0];
    verdicts_[1] = o.verdicts_[1];
    verdicts_[2] = o.verdicts_[2];
    escalated_ = o.escalated_;
    o.service_ = nullptr;
    o.slot_ = nullptr;
  }
  return *this;
}

AdmissionService::Reader::~Reader() {
  if (service_ != nullptr && slot_ != nullptr) {
    service_->rcu_.ReleaseSlot(slot_);
  }
}

Decision AdmissionService::Reader::Decide(graph::NodeId sender,
                                          std::uint64_t logical_time) {
  REJECTO_DCHECK(service_ != nullptr,
                 "Reader::Decide on a moved-from Reader");
  const bool timed = decisions_ % kLatencySampleEvery == 0;
  std::chrono::steady_clock::time_point t0;
  if (timed) t0 = std::chrono::steady_clock::now();
  const RcuPtr<PublishedEpoch>::Pin pin = service_->rcu_.Acquire(slot_);
  // The bootstrap epoch publishes before any reader can exist.
  REJECTO_DCHECK(pin, "no published epoch");
  Decision d = DecideAgainst(*pin, sender, service_->config_.grey_margin);
  Verdict v = d.verdict;
  for (const auto& policy : service_->policies_) {
    v = policy->Evaluate(PolicyInput{sender, logical_time, *pin, d}, v);
  }
  d.escalated = v != d.verdict;
  d.verdict = v;
  if (timed) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    hist_.Record(static_cast<std::uint64_t>(ns));
  }
  ++decisions_;
  ++verdicts_[static_cast<int>(d.verdict)];
  escalated_ += d.escalated ? 1 : 0;
  return d;
}

std::shared_ptr<const PublishedEpoch> AdmissionService::CurrentEpoch() const {
  std::lock_guard<std::mutex> lock(latest_mu_);
  return latest_;
}

AdmissionStats AdmissionService::Stats() const {
  AdmissionStats s;
  s.events_submitted = events_submitted_.load(std::memory_order_relaxed);
  s.events_ingested = events_ingested_.load(std::memory_order_relaxed);
  s.events_applied = events_applied_.load(std::memory_order_relaxed);
  s.events_noop = events_noop_.load(std::memory_order_relaxed);
  s.epochs_published = epochs_published_.load(std::memory_order_relaxed);
  s.snapshot_seconds_total =
      snapshot_seconds_published_.load(std::memory_order_relaxed);
  s.last_snapshot_seconds =
      last_snapshot_seconds_.load(std::memory_order_relaxed);
  s.last_detect_seconds =
      last_detect_seconds_.load(std::memory_order_relaxed);
  s.backpressure_yields =
      backpressure_yields_.load(std::memory_order_relaxed);
  s.published_epoch_id = published_id_.load(std::memory_order_relaxed);
  s.retired_epochs = retired_epochs_.load(std::memory_order_relaxed);
  s.queue_depth = queue_.ApproxSize();
  if (const auto epoch = CurrentEpoch()) {
    s.published_events = epoch->events_ingested;
  }
  return s;
}

void AdmissionService::Stop() {
  bool expected = false;
  if (!stopped_.compare_exchange_strong(expected, true,
                                        std::memory_order_acq_rel)) {
    return;
  }
  Command cmd;
  cmd.kind = Command::Kind::kStop;
  Push(cmd, /*until_stopped=*/false);
  writer_.join();
  {
    std::lock_guard<std::mutex> lock(jobs_mu_);
    jobs_shutdown_ = true;
  }
  jobs_cv_.notify_all();
  detector_.join();
}

}  // namespace rejecto::serve
