/// \file progress.cpp
/// \brief ProgressSink storage, fan-out, and frame JSON.

#include "obs/progress.h"

#include <cstdio>
#include <deque>
#include <mutex>
#include <vector>

#include "io/json.h"

namespace ebmf::obs {

std::string progress_frame_json(const ProgressFrame& frame) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"progress\":true,\"seq\":%llu,\"seconds\":%.3f,"
                "\"incumbent_depth\":%llu,\"lower_bound\":%llu,\"gap\":%llu,"
                "\"conflicts\":%llu,\"wave\":%llu",
                static_cast<unsigned long long>(frame.seq), frame.seconds,
                static_cast<unsigned long long>(frame.incumbent_depth),
                static_cast<unsigned long long>(frame.lower_bound),
                static_cast<unsigned long long>(frame.gap),
                static_cast<unsigned long long>(frame.conflicts),
                static_cast<unsigned long long>(frame.wave));
  std::string out = buf;
  if (!frame.phase.empty()) {
    out += ",\"phase\":\"" + io::json::escape(frame.phase) + "\"";
  }
  out += "}";
  return out;
}

struct ProgressSink::Impl {
  struct Subscriber {
    std::uint64_t token;
    Listener on_frame;
    DoneListener on_done;
  };
  mutable std::mutex mutex;
  std::deque<ProgressFrame> frames;  ///< Newest kKeep, oldest first.
  std::vector<Subscriber> subscribers;
  std::uint64_t next_seq = 0;
  std::uint64_t next_token = 1;
  bool done = false;
};

std::shared_ptr<ProgressSink::Impl> ProgressSink::make_impl() {
  return std::make_shared<Impl>();
}

void ProgressSink::publish(ProgressFrame frame) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  frame.seq = impl_->next_seq++;
  impl_->frames.push_back(frame);
  if (impl_->frames.size() > kKeep) impl_->frames.pop_front();
  // Fan out under the lock: that is what keeps every subscriber's view in
  // seq order even when two threads publish at once.
  std::erase_if(impl_->subscribers, [&frame](const Impl::Subscriber& s) {
    return !s.on_frame(frame);
  });
}

void ProgressSink::finish() {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  if (impl_->done) return;
  impl_->done = true;
  for (const Impl::Subscriber& subscriber : impl_->subscribers)
    if (subscriber.on_done) subscriber.on_done(impl_->next_seq);
  impl_->subscribers.clear();
}

bool ProgressSink::finished() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->done;
}

std::vector<ProgressFrame> ProgressSink::frames() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return {impl_->frames.begin(), impl_->frames.end()};
}

ProgressFrame ProgressSink::last() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->frames.empty() ? ProgressFrame{} : impl_->frames.back();
}

std::uint64_t ProgressSink::published() const {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->next_seq;
}

std::uint64_t ProgressSink::subscribe(Listener listener,
                                      DoneListener on_done) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const ProgressFrame& frame : impl_->frames)
    if (!listener(frame)) return 0;
  if (impl_->done) {
    if (on_done) on_done(impl_->next_seq);
    return 0;
  }
  const std::uint64_t token = impl_->next_token++;
  impl_->subscribers.push_back(
      Impl::Subscriber{token, std::move(listener), std::move(on_done)});
  return token;
}

void ProgressSink::unsubscribe(std::uint64_t token) {
  const std::lock_guard<std::mutex> lock(impl_->mutex);
  std::erase_if(impl_->subscribers, [token](const Impl::Subscriber& s) {
    return s.token == token;
  });
}

}  // namespace ebmf::obs
