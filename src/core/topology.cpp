#include "core/topology.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>

#include "core/runtime.hpp"
#include "core/session.hpp"

namespace tlstm::core {

namespace {
constexpr double k_alpha = 0.3;       ///< EWMA weight of the newest sample
constexpr double k_idle_load = 0.5;   ///< EWMA below this counts a pipe idle
constexpr unsigned k_max_backoff = 16; ///< idle tick-period stretch cap
}  // namespace

topology_controller::topology_controller(session_front& front)
    : front_(front), ewma_(front.pipelines(), 0.0) {
  th_ = std::thread([this] { run(); });
}

topology_controller::~topology_controller() { stop(); }

void topology_controller::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (th_.joinable()) th_.join();
}

void topology_controller::run() {
  const config& cfg = front_.rt_.cfg();
  const auto base = std::chrono::microseconds(cfg.topo_interval_us);
  for (;;) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait_for(lk, base * backoff_, [&] { return stop_; });
      if (stop_) return;
    }
    if (tick()) {
      backoff_ = 1;  // a resize means load is moving — sample densely
    } else if (grow_streak_ == 0 && shrink_streak_ == 0) {
      backoff_ = std::min(backoff_ * 2, k_max_backoff);
    } else {
      backoff_ = 1;  // a streak is building — keep full resolution
    }
  }
}

bool topology_controller::tick() {
  const config& cfg = front_.rt_.cfg();
  const std::uint64_t w = front_.topo_.load(std::memory_order_seq_cst);
  const unsigned width = session_front::topo_width(w);
  const unsigned n = front_.pipelines();

  double total = 0.0;
  double total_now = 0.0;
  unsigned idle = 0;
  for (unsigned t = 0; t < width; ++t) {
    session_front::pipe& p = *front_.pipes_[t];
    // Occupancy = enqueued - retired (queued + in-pipeline). Retired is
    // loaded FIRST so a racing retirement can only understate it — the
    // difference never goes spuriously negative.
    const std::uint64_t r = p.retired_txs.load(std::memory_order_relaxed);
    const std::uint64_t q = p.enqueued_txs.load(std::memory_order_relaxed);
    const double load = q >= r ? static_cast<double>(q - r) : 0.0;
    double& e = ewma_[t];
    e = e * (1.0 - k_alpha) + load * k_alpha;
    // Observability gauge (fixed-point x1000); the float above stays the
    // control state.
    p.depth_ewma_milli.store(static_cast<std::uint64_t>(e * 1000.0),
                             std::memory_order_relaxed);
    total += e;
    total_now += load;
    if (e < k_idle_load && load == 0.0) ++idle;
  }
  const double mean = total / static_cast<double>(width);
  const double mean_now = total_now / static_cast<double>(width);

  // Trim pass (DESIGN.md §12): after a sustained fully-idle stretch no
  // worker is mid-transaction and nothing is queued, so spare write-log
  // chunks and registered pools can safely go back to the OS. Two ticks of
  // full idleness gate it (one tick can be a sampling artifact), and the
  // counter resets on any activity or after a trim so a long lull pays one
  // pass, not one per tick.
  if (idle == width && total_now == 0.0) {
    if (++idle_ticks_ >= 2) {
      front_.rt_.trim_now();
      idle_ticks_ = 0;
    }
  } else {
    idle_ticks_ = 0;
  }

  unsigned target = width;
  // Growth needs the backlog to be *still there*, not just remembered: after
  // a short burst drains, the EWMA keeps reading above the threshold for a
  // few ticks while the pipes sit empty, and on its own it would build a
  // grow streak from pure decay — topology flap per burst. A sustained
  // backlog trivially passes both tests.
  if (mean >= cfg.topo_grow_depth && mean_now >= cfg.topo_grow_depth &&
      width < n) {
    shrink_streak_ = 0;
    if (++grow_streak_ >= cfg.topo_hysteresis) {
      target = std::min(width * 2, n);
    }
  } else if (mean <= cfg.topo_shrink_depth && idle * 2 >= width &&
             width > cfg.min_pipelines) {
    grow_streak_ = 0;
    if (++shrink_streak_ >= cfg.topo_hysteresis) {
      target = std::max(width / 2, cfg.min_pipelines);
    }
  } else {
    grow_streak_ = 0;
    shrink_streak_ = 0;
  }
  if (target == width) return false;
  grow_streak_ = 0;
  shrink_streak_ = 0;
  // Revived pipes inherit the pre-resize mean rather than starting at 0:
  // whatever they had when retired is stale, but seeding them cold halves
  // the observed mean right after every doubling — under a sustained
  // backlog that breaks the grow streak exactly when the next doubling is
  // wanted, and the ramp to full width stalls for several idle-backoff
  // periods per stage. The rerouted load reaches the new pipes within a
  // tick or two anyway; until then the inherited estimate is the best
  // prior, and a real lull still decays it within a few ticks.
  const bool resized = front_.apply_resize(target);
  if (resized && target > width) {
    for (unsigned t = width; t < target; ++t) ewma_[t] = mean;
  }
  // A shrink just harvested the retired pipes' write logs; trim the spares
  // that cleared their grace period (plus registered pools) right away.
  if (resized && target < width) front_.rt_.trim_now();
  return resized;
}

}  // namespace tlstm::core
