#include "server/dispatcher.hpp"

#include <chrono>
#include <utility>

namespace datanet::server {

namespace {

std::uint64_t now_micros() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void FairDispatcher::register_tenant(const std::string& tenant,
                                     TenantLimits limits) {
  std::lock_guard lock(mu_);
  if (tenants_.contains(tenant)) return;
  tenants_.emplace(tenant, Tenant{.limits = limits});
  order_.push_back(tenant);
}

FairDispatcher::Tenant& FairDispatcher::tenant_locked(const std::string& name) {
  auto it = tenants_.find(name);
  if (it == tenants_.end()) {
    it = tenants_.emplace(name, Tenant{.limits = default_limits_}).first;
    order_.push_back(name);
  }
  return it->second;
}

SubmitStatus FairDispatcher::submit(const std::string& tenant,
                                    std::uint64_t* ticket_out) {
  std::lock_guard lock(mu_);
  if (stopped_) return SubmitStatus::kStopped;
  Tenant& t = tenant_locked(tenant);
  ++t.stats.submitted;
  if (t.breaker_open) {
    // Half-open discipline, count-based: every probe_interval-th blocked
    // submission is admitted to test whether the tenant's queries succeed
    // again (its success closes the breaker via record_outcome); the rest
    // are shed with the typed kCircuitOpen status.
    ++t.blocked_since_open;
    const bool probe = breaker_.probe_interval != 0 &&
                       t.blocked_since_open % breaker_.probe_interval == 0;
    if (!probe) {
      ++t.stats.rejected_circuit;
      return SubmitStatus::kCircuitOpen;
    }
  }
  if (t.limits.max_queue == 0) {
    // Queueless tenant: admission IS dispatch eligibility. The job still
    // passes through the queue (grants come from try_next), but only when
    // a slot is free this instant, so the queue depth stays <=
    // max_inflight and rejections are typed as an in-flight overload.
    if (t.queue.size() + t.inflight >= t.limits.max_inflight) {
      ++t.stats.rejected_inflight;
      return SubmitStatus::kTooManyInflight;
    }
  } else if (t.queue.size() >= t.limits.max_queue) {
    ++t.stats.rejected_queue_full;
    return SubmitStatus::kQueueFull;
  }
  DispatchJob job{.ticket = next_ticket_++,
                  .tenant = tenant,
                  .submitted_micros = now_micros()};
  if (ticket_out != nullptr) *ticket_out = job.ticket;
  t.queue.push_back(std::move(job));
  ++t.stats.accepted;
  ++queued_total_;
  return SubmitStatus::kAccepted;
}

bool FairDispatcher::eligible_locked(const Tenant& t) const {
  return !t.queue.empty() && t.inflight < t.limits.max_inflight;
}

std::optional<DispatchJob> FairDispatcher::pick_locked() {
  // Every global slot busy: no tenant is visited, so none forfeits credit
  // and the DRR order resumes unchanged after the next complete().
  if (order_.empty() || inflight_total_ >= slots_) return std::nullopt;
  // One DRR rotation: visit each tenant at most once starting at rr_. An
  // eligible tenant earns its quantum (weight * kJobCost) on the visit and
  // spends kJobCost per dispatch; rr_ stays on a tenant while it has credit
  // and eligible work (so weight-w tenants get w back-to-back dispatches),
  // otherwise credit resets and the rotation moves on. Ineligible tenants
  // forfeit their credit — DRR's classic rule, which is what stops a
  // deep-backlog tenant from banking credit while its in-flight cap is hit.
  for (std::size_t scanned = 0; scanned < order_.size(); ++scanned) {
    Tenant& t = tenants_.at(order_[rr_]);
    if (!eligible_locked(t)) {
      t.deficit = 0;
      rr_ = (rr_ + 1) % order_.size();
      continue;
    }
    if (t.deficit < kJobCost) t.deficit += t.limits.weight * kJobCost;
    t.deficit -= kJobCost;
    DispatchJob job = std::move(t.queue.front());
    t.queue.pop_front();
    ++t.inflight;
    ++t.stats.dispatched;
    const std::uint64_t now = now_micros();
    if (now > job.submitted_micros) {
      t.stats.queue_wait_micros += now - job.submitted_micros;
    }
    --queued_total_;
    ++inflight_total_;
    if (t.deficit < kJobCost || !eligible_locked(t)) {
      t.deficit = eligible_locked(t) ? t.deficit : 0;
      rr_ = (rr_ + 1) % order_.size();
    }
    return job;
  }
  return std::nullopt;
}

std::optional<DispatchJob> FairDispatcher::try_next() {
  std::lock_guard lock(mu_);
  return pick_locked();
}

void FairDispatcher::complete(const std::string& tenant) {
  std::lock_guard lock(mu_);
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end() || it->second.inflight == 0) return;
  --it->second.inflight;
  ++it->second.stats.completed;
  --inflight_total_;
}

void FairDispatcher::record_outcome(const std::string& tenant, bool success) {
  std::lock_guard lock(mu_);
  if (breaker_.failure_threshold == 0) return;  // breaker disabled
  const auto it = tenants_.find(tenant);
  if (it == tenants_.end()) return;
  Tenant& t = it->second;
  if (success) {
    t.consecutive_failures = 0;
    t.breaker_open = false;
    t.blocked_since_open = 0;
    return;
  }
  if (++t.consecutive_failures >= breaker_.failure_threshold &&
      !t.breaker_open) {
    t.breaker_open = true;
    t.blocked_since_open = 0;
  }
}

bool FairDispatcher::breaker_open(const std::string& tenant) const {
  std::lock_guard lock(mu_);
  const auto it = tenants_.find(tenant);
  return it != tenants_.end() && it->second.breaker_open;
}

void FairDispatcher::stop() {
  std::lock_guard lock(mu_);
  stopped_ = true;
}

std::size_t FairDispatcher::queued() const {
  std::lock_guard lock(mu_);
  return queued_total_;
}

std::size_t FairDispatcher::inflight() const {
  std::lock_guard lock(mu_);
  return inflight_total_;
}

TenantStats FairDispatcher::tenant_stats(const std::string& tenant) const {
  std::lock_guard lock(mu_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantStats{} : it->second.stats;
}

std::vector<std::string> FairDispatcher::tenants() const {
  std::lock_guard lock(mu_);
  return order_;
}

}  // namespace datanet::server
