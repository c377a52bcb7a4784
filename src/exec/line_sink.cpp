#include "exec/line_sink.hpp"

#include <cstdarg>
#include <utility>

namespace moonshot::exec {

LineSink& LineSink::instance() {
  static LineSink sink;
  return sink;
}

bool LineSink::set_tagged(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(tagged_, on);
}

void LineSink::line(std::size_t world, const char* fmt, ...) {
  char msg[2048];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(msg, sizeof msg, fmt, args);
  va_end(args);
  std::lock_guard<std::mutex> lock(mu_);
  if (tagged_) {
    std::fprintf(stderr, "[w%02zu] %s", world, msg);
  } else {
    std::fputs(msg, stderr);
  }
  std::fflush(stderr);
}

void appendf(std::string& out, const char* fmt, ...) {
  char buf[2048];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
}

OrderedEmitter::OrderedEmitter(std::size_t count, std::FILE* to)
    : to_(to), buf_(count), done_(count, 0) {}

OrderedEmitter::~OrderedEmitter() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = next_; i < buf_.size(); ++i) {
    if (!buf_[i].empty()) std::fputs(buf_[i].c_str(), to_);
  }
  std::fflush(to_);
}

void OrderedEmitter::append(std::size_t i, std::string text) {
  std::lock_guard<std::mutex> lock(mu_);
  buf_[i] += std::move(text);
}

void OrderedEmitter::complete(std::size_t i) {
  std::lock_guard<std::mutex> lock(mu_);
  done_[i] = 1;
  while (next_ < done_.size() && done_[next_]) {
    if (!buf_[next_].empty()) {
      std::fputs(buf_[next_].c_str(), to_);
      std::fflush(to_);
    }
    buf_[next_].clear();
    ++next_;
  }
}

}  // namespace moonshot::exec
