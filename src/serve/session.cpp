#include "serve/session.hpp"

#include <stdexcept>
#include <utility>

#include "serve/scheduler.hpp"

namespace fftmv::serve {

StreamSession::StreamSession(StreamSession&& other) noexcept {
  *this = std::move(other);  // closing an empty handle is a no-op
}

StreamSession& StreamSession::operator=(StreamSession&& other) noexcept {
  if (this != &other) {
    close();
    sched_ = std::exchange(other.sched_, nullptr);
    live_ = std::move(other.live_);
    id_ = std::exchange(other.id_, 0);
    tenant_ = other.tenant_;
    direction_ = other.direction_;
    config_ = std::move(other.config_);
    qos_ = other.qos_;
  }
  return *this;
}

StreamSession::~StreamSession() { close(); }

std::future<MatvecResult> StreamSession::submit(std::vector<double> input) {
  if (sched_ == nullptr) {
    throw std::runtime_error("StreamSession::submit: session is closed");
  }
  // Shared-held across the call: ~AsyncScheduler cannot free the
  // scheduler out from under it (it takes the lock exclusively).
  std::shared_lock live(live_->mutex);
  if (!live_->alive) {
    throw std::runtime_error(
        "StreamSession::submit: the scheduler was destroyed");
  }
  return sched_->submit_stream(id_, std::move(input));
}

void StreamSession::close() {
  if (sched_ == nullptr) return;
  AsyncScheduler* sched = std::exchange(sched_, nullptr);
  const auto live = std::exchange(live_, nullptr);
  const SessionId id = std::exchange(id_, 0);
  std::shared_lock lock(live->mutex);
  // After the scheduler is gone, close degrades to making the handle
  // inert: the drain/unpin it would have run died with the scheduler.
  if (live->alive) sched->close_session(id);
}

}  // namespace fftmv::serve
